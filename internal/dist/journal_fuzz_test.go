package dist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
	rt "repro/internal/runtime"
)

// fuzzSeedJournal builds a well-formed journal holding one record of
// every type and a transition in each direction — epoch 0, a shrink
// epoch 1, a restore epoch 2 — returning its raw bytes: the interesting
// seed for mutation-based fuzzing of the replay path.
func fuzzSeedJournal(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.journal")
	w, err := journal.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	spec := distSpec(f)
	payload := NewPlanPayload(spec, distPlan(f, spec))
	lost := &rt.DeviceLostError{Stage: 1, Device: 1, AtSec: 0.5, Watermark: 1, DurableTokens: 8, PrefillDone: true}
	halt := &rt.RestoreHaltError{AtSec: 0.9, Watermark: 3, DurableTokens: 24, PrefillDone: true}
	recs := []*Record{
		{Type: RecPlan, Seq: 1, Plan: &PlanRecord{Epoch: 0, Payload: payload}},
		{Type: RecMember, Seq: 2, Member: &MemberRecord{Name: "w", Token: "lease-1-w", Ord: 1}},
		{Type: RecRound, Seq: 3, Round: &RoundRecord{Watermark: 1, DurableTokens: 8, PrefillDone: true, RunTokens: 8}},
		{Type: RecPlan, Seq: 4, Plan: &PlanRecord{Epoch: 1, Payload: payload, StartRound: 1, DurableTokens: 8,
			Transition: &TransitionRecord{Lost: lost, Workers: []string{"w"}, Devices: []string{"gpu1"}, MovedLayers: 2}}},
		{Type: RecMember, Seq: 5, Member: &MemberRecord{Name: "w", Token: "lease-2-w", Ord: 2}},
		{Type: RecPlan, Seq: 6, Plan: &PlanRecord{Epoch: 2, Payload: payload, StartRound: 3, DurableTokens: 24,
			Transition: &TransitionRecord{Halt: halt, Workers: []string{"w"}, Devices: []string{"gpu1"}, MovedLayers: 2}}},
		{Type: RecRecover, Seq: 7, Recover: &RecoverRecord{Replayed: 6}},
		{Type: RecDone, Seq: 8},
	}
	for _, r := range recs {
		buf, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := w.Append(buf); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// The seed must decode cleanly, or mutations never reach the
	// transition checks.
	rep, err := journal.ReplayBytes(data)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeState(rep.Records); err != nil {
		f.Fatalf("seed journal does not decode: %v", err)
	}
	return data
}

// FuzzJournalReplay is the crash-recovery robustness contract: arbitrary
// mutations and truncations of a journal must never panic the replay or
// the semantic decoder. Every outcome is either a valid prefix (with
// torn bytes accounted for) or a typed *journal.CorruptJournalError.
func FuzzJournalReplay(f *testing.F) {
	seed := fuzzSeedJournal(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := journal.ReplayBytes(data)
		if rep == nil {
			t.Fatal("ReplayBytes returned a nil replay")
		}
		if err != nil {
			var corrupt *journal.CorruptJournalError
			if !errors.As(err, &corrupt) {
				t.Fatalf("replay error is not the typed corruption: %v", err)
			}
		}
		if rep.ValidBytes+rep.TornBytes > int64(len(data)) {
			t.Fatalf("replay accounted %d+%d bytes of a %d-byte input", rep.ValidBytes, rep.TornBytes, len(data))
		}
		// The semantic decoder over whatever prefix survived must also be
		// panic-free and typed.
		if _, derr := DecodeState(rep.Records); derr != nil {
			var corrupt *journal.CorruptJournalError
			if !errors.As(derr, &corrupt) {
				t.Fatalf("decode error is not the typed corruption: %v", derr)
			}
			return
		}
		// A journal that decodes decodes at every prefix, to the state the
		// fold holds after that many records.
		var st durable
		for k, raw := range rep.Records {
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("record %d: %v", k, err)
			}
			if st, err = fold(st, &rec); err != nil {
				t.Fatalf("fold refuses record %d of a journal that decodes: %v", k, err)
			}
			pst, err := DecodeState(rep.Records[:k+1])
			if err != nil {
				t.Fatalf("prefix of %d records does not decode: %v", k+1, err)
			}
			if !reflect.DeepEqual(*pst, st) {
				t.Fatalf("prefix of %d records decodes to\n%+v\nbut the fold holds\n%+v", k+1, *pst, st)
			}
		}
	})
}
