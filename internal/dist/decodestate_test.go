package dist

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/journal"
	rt "repro/internal/runtime"
)

// TestDecodeStateViolations pins the semantic validator's taxonomy: each
// structural violation is a typed corruption naming the record index,
// never a panic or a silently skipped record.
func TestDecodeStateViolations(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	payload := NewPlanPayload(s, p)
	enc := func(recs ...*Record) [][]byte {
		out := make([][]byte, len(recs))
		for i, r := range recs {
			buf, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = buf
		}
		return out
	}
	plan0 := func() *Record {
		return &Record{Type: RecPlan, Seq: 1, Plan: &PlanRecord{Epoch: 0, Payload: payload}}
	}
	lost := &rt.DeviceLostError{Stage: 1, Device: p.Order[1], Watermark: 2, DurableTokens: 16, PrefillDone: true}
	halt := &rt.RestoreHaltError{Watermark: 6, DurableTokens: 48, PrefillDone: true}
	epoch := func(seq, n int, tr *TransitionRecord) *Record {
		return &Record{Type: RecPlan, Seq: seq, Plan: &PlanRecord{Epoch: n, Payload: payload, Transition: tr}}
	}
	shrink := &TransitionRecord{Lost: lost, Workers: []string{"w"}}
	cases := []struct {
		name string
		want string
		recs [][]byte
	}{
		{"bad json", "bad JSON", [][]byte{[]byte("{")}},
		{"seq break", "seq 2, want 1", enc(&Record{Type: RecDone, Seq: 2})},
		{"first not plan", "must open with a plan", enc(&Record{Type: RecDone, Seq: 1})},
		{"record after done", "after done", enc(plan0(), &Record{Type: RecDone, Seq: 2}, &Record{Type: RecDone, Seq: 3})},
		{"plan without payload", "plan record without payload", enc(&Record{Type: RecPlan, Seq: 1})},
		{"plan epoch skip", "plan epoch 2, want 1", enc(plan0(),
			&Record{Type: RecPlan, Seq: 2, Plan: &PlanRecord{Epoch: 2, Payload: payload}})},
		{"plan missing inner payload", "without plan payload", enc(&Record{Type: RecPlan, Seq: 1, Plan: &PlanRecord{}})},
		{"plan invalid inner payload", "invalid plan payload", enc(&Record{Type: RecPlan, Seq: 1, Plan: &PlanRecord{Payload: &PlanPayload{}}})},
		{"plan negative watermark", "negative watermark", enc(&Record{Type: RecPlan, Seq: 1, Plan: &PlanRecord{Payload: payload, StartRound: -1}})},
		{"member without payload", "member record without payload", enc(plan0(), &Record{Type: RecMember, Seq: 2})},
		{"member missing token", "missing name, token", enc(plan0(),
			&Record{Type: RecMember, Seq: 2, Member: &MemberRecord{Name: "w", Ord: 1}})},
		{"round without payload", "round record without payload", enc(plan0(), &Record{Type: RecRound, Seq: 2})},
		{"round negative watermark", "negative watermark in round", enc(plan0(),
			&Record{Type: RecRound, Seq: 2, Round: &RoundRecord{Watermark: -1}})},
		{"round unadopted epoch", "unadopted epoch 1", enc(plan0(),
			&Record{Type: RecRound, Seq: 2, Round: &RoundRecord{Epoch: 1, Watermark: 1}})},
		{"round negative epoch", "superseded epoch -1", enc(plan0(),
			&Record{Type: RecRound, Seq: 2, Round: &RoundRecord{Epoch: -1, Watermark: 3}})},
		{"round superseded epoch", "superseded epoch 0", enc(plan0(), epoch(2, 1, shrink),
			&Record{Type: RecRound, Seq: 3, Round: &RoundRecord{Epoch: 0, Watermark: 3}})},
		{"epoch without transition", "plan epoch 1 without a transition", enc(plan0(), epoch(2, 1, nil))},
		{"epoch 0 with transition", "epoch-0 plan with a transition", enc(epoch(1, 0, shrink))},
		{"transition with loss and halt", "exactly one of a loss and a restore halt", enc(plan0(),
			epoch(2, 1, &TransitionRecord{Lost: lost, Halt: halt, Workers: []string{"w"}}))},
		{"transition with neither", "exactly one of a loss and a restore halt", enc(plan0(),
			epoch(2, 1, &TransitionRecord{Workers: []string{"w"}}))},
		{"replan without worker", "names no worker", enc(plan0(), epoch(2, 1, &TransitionRecord{Lost: lost}))},
		{"restore without worker", "names no worker", enc(plan0(), epoch(2, 1, shrink),
			epoch(3, 2, &TransitionRecord{Halt: halt}))},
		{"restore before replan", "restore without an earlier shrink", enc(plan0(),
			epoch(2, 1, &TransitionRecord{Halt: halt, Workers: []string{"w"}}))},
		{"second restore", "restore without an earlier shrink", enc(plan0(), epoch(2, 1, shrink),
			epoch(3, 2, &TransitionRecord{Halt: halt, Workers: []string{"w"}}),
			epoch(4, 3, &TransitionRecord{Halt: halt, Workers: []string{"w"}}))},
		{"round tokens off the invariant", "round record credits 9 durable tokens at watermark 1, want 8", enc(plan0(),
			&Record{Type: RecRound, Seq: 2, Round: &RoundRecord{Watermark: 1, DurableTokens: 9}})},
		{"plan tokens off the invariant", "plan record credits 8 durable tokens at watermark 2, want 16", enc(plan0(),
			&Record{Type: RecPlan, Seq: 2, Plan: &PlanRecord{Epoch: 1, Payload: payload, Transition: shrink, StartRound: 2, DurableTokens: 8}})},
		// The retired transition records fail typed, with no migration.
		{"replan without payload", `unknown record type "replan"`, enc(plan0(), &Record{Type: "replan", Seq: 2})},
		{"restore without payload", `unknown record type "restore"`, enc(plan0(), &Record{Type: "restore", Seq: 2})},
		{"recover without payload", "recover record without payload", enc(plan0(), &Record{Type: RecRecover, Seq: 2})},
		{"unknown type", "unknown record type", enc(plan0(), &Record{Type: "bogus", Seq: 2})},
		{"empty journal", "no plan record", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeState(c.recs)
			if err == nil {
				t.Fatal("violation decoded cleanly")
			}
			var corrupt *journal.CorruptJournalError
			if !errors.As(err, &corrupt) {
				t.Fatalf("error is not the typed corruption: %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
