package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeRecords(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	want := [][]byte{[]byte("plan"), []byte("member-a"), []byte(`{"round":3}`)}
	writeRecords(t, path, want...)
	rep, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("clean journal reports %d torn bytes", rep.TornBytes)
	}
	if len(rep.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(want))
	}
	for i, r := range rep.Records {
		if string(r) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, r, want[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != rep.ValidBytes {
		t.Errorf("ValidBytes %d, file size %d", rep.ValidBytes, fi.Size())
	}
}

func TestAppendRejectsDegenerateRecords(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //llmpq:allow(errdrop): test cleanup
	if _, err := w.Append(nil); err == nil {
		t.Error("empty append did not error")
	}
	if _, err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversize append did not error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); err == nil {
		t.Error("append after close did not error")
	}
}

// TestTornTailEveryOffset is the torn-write tolerance contract: a journal
// cut at every byte offset inside its final record replays to exactly the
// records before it, reporting the dangling bytes, never an error.
func TestTornTailEveryOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, []byte("first record"), []byte("second"), []byte("the final record"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	finalStart := len(data) - headerBytes - len("the final record")
	for cut := finalStart; cut < len(data); cut++ {
		rep, err := ReplayBytes(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: unexpected error %v", cut, err)
		}
		if len(rep.Records) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(rep.Records))
		}
		if int(rep.ValidBytes) != finalStart {
			t.Fatalf("cut at %d: ValidBytes %d, want %d", cut, rep.ValidBytes, finalStart)
		}
		if wantTorn := int64(cut - finalStart); rep.TornBytes != wantTorn {
			t.Fatalf("cut at %d: TornBytes %d, want %d", cut, rep.TornBytes, wantTorn)
		}
	}
}

func TestCorruptRecordsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, []byte("alpha"), []byte("beta"))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flip payload byte", func(d []byte) []byte {
			d[headerBytes] ^= 0xff
			return d
		}},
		{"flip crc byte", func(d []byte) []byte {
			d[5] ^= 0x01
			return d
		}},
		{"zero length", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[0:4], 0)
			return d
		}},
		{"oversize length", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[0:4], MaxRecordBytes+1)
			return d
		}},
	}
	for _, c := range cases {
		data := append([]byte(nil), clean...)
		rep, err := ReplayBytes(c.mutate(data))
		var corrupt *CorruptJournalError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: error %v, want CorruptJournalError", c.name, err)
			continue
		}
		if corrupt.Offset != 0 {
			t.Errorf("%s: offset %d, want 0", c.name, corrupt.Offset)
		}
		if rep == nil || len(rep.Records) != 0 {
			t.Errorf("%s: corrupt first record still yielded a prefix", c.name)
		}
	}
	// Corruption in the second record preserves the first as the prefix.
	data := append([]byte(nil), clean...)
	second := headerBytes + len("alpha")
	data[second+headerBytes] ^= 0xff
	rep, err := ReplayBytes(data)
	var corrupt *CorruptJournalError
	if !errors.As(err, &corrupt) {
		t.Fatalf("second-record corruption: %v, want CorruptJournalError", err)
	}
	if corrupt.Offset != int64(second) {
		t.Errorf("offset %d, want %d", corrupt.Offset, second)
	}
	if len(rep.Records) != 1 || string(rep.Records[0]) != "alpha" {
		t.Errorf("prefix = %q, want [alpha]", rep.Records)
	}
}

func TestContinueTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, []byte("kept"), []byte("also kept"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := fi.Size()
	// Simulate a crash mid-append: a header plus half a payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, headerBytes+3)
	binary.BigEndian.PutUint32(torn[0:4], 10) // claims 10 bytes, only 3 follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w, rep, err := Continue(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != int64(len(torn)) {
		t.Errorf("TornBytes %d, want %d", rep.TornBytes, len(torn))
	}
	if len(rep.Records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(rep.Records))
	}
	if _, err := w.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rep2.Records))
	for i, r := range rep2.Records {
		got[i] = string(r)
	}
	if fmt.Sprint(got) != "[kept also kept resumed]" {
		t.Errorf("after continue: %v", got)
	}
	if rep2.TornBytes != 0 {
		t.Errorf("continued journal still torn (%d bytes)", rep2.TornBytes)
	}
	fi2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() <= whole {
		t.Errorf("continue did not grow the journal (%d -> %d)", whole, fi2.Size())
	}
}

func TestContinueRefusesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, []byte("only"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Continue(path); err == nil {
		t.Fatal("Continue accepted a corrupt journal")
	} else {
		var corrupt *CorruptJournalError
		if !errors.As(err, &corrupt) {
			t.Fatalf("error %v, want CorruptJournalError", err)
		}
	}
}

// TestConcurrentAppend exercises the writer mutex under the race
// detector: records from racing goroutines interleave whole, never torn.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), writers*each)
	}
	if rep.TornBytes != 0 {
		t.Errorf("concurrent appends left a torn tail")
	}
}

func TestErrorPaths(t *testing.T) {
	e := &CorruptJournalError{Offset: 12, Reason: "crc mismatch"}
	if msg := e.Error(); !strings.Contains(msg, "12") || !strings.Contains(msg, "crc mismatch") {
		t.Errorf("corruption error must carry offset and reason, got %q", msg)
	}
	if _, err := Create(filepath.Join(t.TempDir(), "no-such-dir", "j")); err == nil {
		t.Error("Create into a missing directory must fail")
	}
	missing := filepath.Join(t.TempDir(), "missing.journal")
	if _, err := ReplayFile(missing); err == nil {
		t.Error("ReplayFile on a missing file must fail")
	}
	if _, _, err := Continue(missing); err == nil {
		t.Error("Continue on a missing file must fail")
	}
}

// countSyncs counts w's fsyncs through its OnSync hook, which runs under
// the writer's lock.
func countSyncs(w *Writer) *int {
	n := new(int)
	w.OnSync = func(time.Duration) { *n++ }
	return n
}

// TestUnsyncedAppendsRideOnBarrier: AppendNoSync records land in call
// order and the next Append's one fsync makes them all durable, so Close
// has nothing left to sync.
func TestUnsyncedAppendsRideOnBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	syncs := countSyncs(w)
	want := []string{"round-1", "round-2", "round-3", "plan"}
	for _, p := range want[:3] {
		if _, err := w.AppendNoSync([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if *syncs != 0 || !w.dirty {
		t.Fatalf("after unsynced appends: %d fsyncs, dirty=%v; want 0, true", *syncs, w.dirty)
	}
	n, err := w.Append([]byte(want[3]))
	if err != nil {
		t.Fatal(err)
	}
	if n != headerBytes+len(want[3]) {
		t.Errorf("Append grew the journal by %d bytes, want %d", n, headerBytes+len(want[3]))
	}
	if *syncs != 1 || w.dirty {
		t.Fatalf("after the barrier: %d fsyncs, dirty=%v; want 1, false", *syncs, w.dirty)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Errorf("Close after a barrier: %d fsyncs, want 1", *syncs)
	}
	rep, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rep.Records))
	for i, r := range rep.Records {
		got[i] = string(r)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || rep.TornBytes != 0 {
		t.Errorf("replayed %v (torn %d), want %v", got, rep.TornBytes, want)
	}
}

// TestCloseSyncsPendingTail: Close fsyncs unsynced records still pending,
// and adds no fsync when nothing is.
func TestCloseSyncsPendingTail(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		barrier   []bool // per append: Append (true) or AppendNoSync
		wantSyncs int
	}{
		{"empty", nil, 0},
		{"pending tail", []bool{false, false}, 1},
		{"barrier last", []bool{false, true}, 1},
		{"tail after barrier", []bool{true, false}, 2},
	}
	for _, c := range cases {
		w, err := Create(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		syncs := countSyncs(w)
		for i, b := range c.barrier {
			write := w.AppendNoSync
			if b {
				write = w.Append
			}
			if _, err := write([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if *syncs != c.wantSyncs || w.dirty {
			t.Errorf("%s: %d fsyncs after Close (dirty=%v), want %d", c.name, *syncs, w.dirty, c.wantSyncs)
		}
		if err := w.Close(); err != nil || *syncs != c.wantSyncs {
			t.Errorf("%s: a second Close returned %v with %d fsyncs", c.name, err, *syncs)
		}
	}
}

// TestTornTailAfterUnsyncedAppends: a file cut mid-record after unsynced
// appends (a power loss that kept part of the tail) replays as a torn
// tail behind the records before the cut, and Continue truncates it.
func TestTornTailAfterUnsyncedAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("plan")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"round-1", "round-2"} {
		if _, err := w.AppendNoSync([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 3 // inside round-2's payload
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Continue(path)
	if err != nil {
		t.Fatal(err)
	}
	valid := int64(2*headerBytes + len("plan") + len("round-1"))
	if len(rep.Records) != 2 || rep.ValidBytes != valid || rep.TornBytes != int64(cut)-valid {
		t.Fatalf("replayed %d records, %d valid and %d torn bytes; want 2, %d, %d",
			len(rep.Records), rep.ValidBytes, rep.TornBytes, valid, int64(cut)-valid)
	}
	if _, err := w.AppendNoSync([]byte("round-2 again")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 3 || rep.TornBytes != 0 || string(rep.Records[2]) != "round-2 again" {
		t.Errorf("after Continue: %q (torn %d)", rep.Records, rep.TornBytes)
	}
}

// TestConcurrentMixedAppends: goroutines mixing both appends get every
// record back exactly once, validly framed and in each goroutine's call
// order, and the writer issues one fsync per Append.
func TestConcurrentMixedAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	syncs := countSyncs(w)
	const writers, each = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				write := w.AppendNoSync
				if i%4 == 3 {
					write = w.Append
				}
				if _, err := write([]byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := *syncs, writers*each/4; got != want {
		t.Errorf("%d fsyncs, want one per Append (%d)", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != writers*each || rep.TornBytes != 0 {
		t.Fatalf("replayed %d records (torn %d), want %d", len(rep.Records), rep.TornBytes, writers*each)
	}
	next := make([]int, writers)
	for _, r := range rep.Records {
		var g, i int
		if _, err := fmt.Sscanf(string(r), "g%d-i%d", &g, &i); err != nil {
			t.Fatalf("record %q: %v", r, err)
		}
		if i != next[g] {
			t.Fatalf("goroutine %d: record %d replayed where %d was due", g, i, next[g])
		}
		next[g]++
	}
}
