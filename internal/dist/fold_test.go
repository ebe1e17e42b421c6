package dist

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/journal"
	rt "repro/internal/runtime"
)

// bareCoordinator builds a coordinator for cfg as Serve does, before its
// durable state is opened. Events reach it by hand: handle and sweep
// apply one directly, and wait pumps a buffered channel the test fills.
func bareCoordinator(cfg Config) *coordinator {
	co := &coordinator{
		cfg:     cfg.withDefaults(),
		ctx:     context.Background(),
		events:  make(chan netEvent, 16), // room for what a test queues before it pumps
		members: make(map[string]*member),
		conns:   make(map[link]*member),
		pending: make(map[uint64]*flight),
	}
	co.stamp()
	return co
}

// testCoordinator builds a coordinator for cfg with its in-memory durable
// state opened (epoch 0 adopted), as Serve does before it listens.
func testCoordinator(t testing.TB, cfg Config) *coordinator {
	t.Helper()
	co := bareCoordinator(cfg)
	if err := co.openJournal(); err != nil {
		t.Fatal(err)
	}
	return co
}

// foldTap records the live coordinator's durable state after every
// append, across every coordinator a test runs in turn.
type foldTap struct {
	mu     sync.Mutex
	states []durable
}

func (f *foldTap) tap(st durable) {
	f.mu.Lock()
	f.states = append(f.states, st)
	f.mu.Unlock()
}

// checkLiveFold is the one-fold contract on a journal a run wrote under
// dir: for every k, the state the live coordinators held right after
// their k-th append deep-equals the fold of the journal's first k
// records as written, so recovery from any crash point reads the state
// the live run held there.
func checkLiveFold(t *testing.T, dir string, live *foldTap) {
	t.Helper()
	rep, err := journal.ReplayFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	if len(live.states) != len(rep.Records) {
		t.Fatalf("live coordinators appended %d records, the journal holds %d", len(live.states), len(rep.Records))
	}
	for i, st := range live.states {
		k := i + 1
		if st.Records != k {
			t.Fatalf("live append %d folded to record count %d", k, st.Records)
		}
		replayed, err := DecodeState(rep.Records[:k])
		if err != nil {
			t.Fatalf("prefix of %d records: %v", k, err)
		}
		if !reflect.DeepEqual(*replayed, st) {
			t.Fatalf("prefix of %d records folds to\n%+v\nbut the live coordinator held\n%+v", k, *replayed, st)
		}
	}
}

// TestFoldLeavesInputUnchanged: fold is pure. Folding any record —
// accepted or refused — into any prefix state leaves that state equal
// to an independent decode of the same prefix, and two folds branching
// from one state do not disturb each other.
func TestFoldLeavesInputUnchanged(t *testing.T) {
	s := distSpec(t)
	payload := NewPlanPayload(s, distPlan(t, s))
	lost := &rt.DeviceLostError{Stage: 1, Device: 1, AtSec: 0.5, Watermark: 1, DurableTokens: 8, PrefillDone: true}
	halt := &rt.RestoreHaltError{AtSec: 0.9, Watermark: 3, DurableTokens: 24, PrefillDone: true}
	recs := []*Record{
		{Type: RecPlan, Plan: &PlanRecord{Epoch: 0, Payload: payload}},
		{Type: RecMember, Member: &MemberRecord{Name: "v", Token: "lease-1-v", Ord: 1}},
		{Type: RecMember, Member: &MemberRecord{Name: "w", Token: "lease-2-w", Ord: 2}},
		{Type: RecRound, Round: &RoundRecord{Watermark: 1, DurableTokens: 8, PrefillDone: true, RunTokens: 8}},
		{Type: RecPlan, Plan: &PlanRecord{Epoch: 1, Payload: payload, StartRound: 1, DurableTokens: 8,
			Transition: &TransitionRecord{Lost: lost, Workers: []string{"w"}, Devices: []string{"gpuB"}, MovedLayers: 2}}},
		{Type: RecRound, Round: &RoundRecord{Epoch: 1, Watermark: 2, DurableTokens: 16, PrefillDone: true, RunTokens: 8}},
		{Type: RecMember, Member: &MemberRecord{Name: "w", Token: "lease-3-w", Ord: 3}},
		{Type: RecPlan, Plan: &PlanRecord{Epoch: 2, Payload: payload, StartRound: 3, DurableTokens: 24,
			Transition: &TransitionRecord{Halt: halt, Workers: []string{"w"}, Devices: []string{"gpuB"}, MovedLayers: 2}}},
		{Type: RecPlan, Plan: &PlanRecord{Epoch: 3, Payload: payload, StartRound: 1, DurableTokens: 8,
			Transition: &TransitionRecord{Lost: lost, Workers: []string{"v"}, Devices: []string{"gpuB"}, MovedLayers: 2}}},
		{Type: RecRecover, Recover: &RecoverRecord{Replayed: 9}},
		{Type: RecDone},
	}
	raw := make([][]byte, len(recs))
	for i, r := range recs {
		r.Seq = i + 1
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = buf
	}
	if _, err := DecodeState(raw); err != nil {
		t.Fatalf("the journal does not decode: %v", err)
	}
	// Each plan record has a twin differing in one field, so two plans
	// are accepted from one state and an append that shared its input's
	// backing array would show.
	cands := recs
	for _, r := range recs {
		if r.Type == RecPlan {
			p := *r.Plan
			p.StrategyHash = "variant"
			cands = append(cands, &Record{Type: RecPlan, Plan: &p})
		}
	}
	for k := 1; k < len(recs); k++ {
		in, err := DecodeState(raw[:k])
		if err != nil {
			t.Fatalf("prefix of %d records: %v", k, err)
		}
		twin, err := DecodeState(raw[:k])
		if err != nil {
			t.Fatal(err)
		}
		// Every candidate, stamped as the next record, so each record type
		// meets each state; most are refused.
		var outs []durable
		for _, r := range cands {
			c := *r
			c.Seq = k + 1
			out, err := fold(*in, &c)
			if !reflect.DeepEqual(*in, *twin) {
				t.Fatalf("prefix of %d records: folding a %s record changed the input", k, r.Type)
			}
			if err == nil {
				outs = append(outs, out)
			}
		}
		// The branches are independent: each still equals its own fold
		// from the untouched twin.
		for _, r := range cands {
			c := *r
			c.Seq = k + 1
			want, err := fold(*twin, &c)
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(outs[0], want) {
				t.Fatalf("prefix of %d records: a later fold disturbed an earlier branch", k)
			}
			outs = outs[1:]
		}
	}
}
