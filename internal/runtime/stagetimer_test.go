package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/assigner"
)

// TestStageTimerIdentityReproducesRun: an engine whose StageTimer
// evaluates StageTime (the remote-worker contract) produces stats
// bit-identical to the local computation — the parity invariant the
// distributed control plane rests on.
func TestStageTimerIdentityReproducesRun(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	eng.StageTimer = func(stage, batch, round int, prefill bool) (float64, error) {
		calls++
		return StageTime(s, p, nil, stage, batch, round, prefill)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, clean) {
		t.Errorf("StageTimer run diverged:\nremote: %+v\nlocal:  %+v", st, clean)
	}
	if calls == 0 {
		t.Error("StageTimer was never consulted")
	}
}

// TestStageTimerLossHaltsWithWatermark: a StageLostError from the
// StageTimer halts the run with a watermarked DeviceLostError, and
// resuming from that watermark conserves every token — the cross-process
// equivalent of a chaos permanent crash.
func TestStageTimerLossHaltsWithWatermark(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	failAfter := 3 * p.NumStages() * ((s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB)
	eng.StageTimer = func(stage, batch, round int, prefill bool) (float64, error) {
		calls++
		if calls > failAfter && stage == 1 {
			return 0, &StageLostError{Stage: stage}
		}
		return StageTime(s, p, nil, stage, batch, round, prefill)
	}
	_, err = eng.Run()
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want DeviceLostError, got %v", err)
	}
	if lost.Stage != 1 || lost.Device != p.Order[1] {
		t.Errorf("lost stage %d device %d, want stage 1 device %d", lost.Stage, lost.Device, p.Order[1])
	}
	if !lost.PrefillDone || lost.Watermark < 1 {
		t.Fatalf("loss past prefill must carry a positive watermark: %+v", lost)
	}
	if lost.DurableTokens != s.Work.GlobalBatch*lost.Watermark {
		t.Errorf("durable tokens %d, want %d", lost.DurableTokens, s.Work.GlobalBatch*lost.Watermark)
	}

	// Resume the same plan from the watermark; durable + resumed must
	// equal the clean run's total exactly.
	resumeEng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumeEng.StartRound = lost.Watermark
	resumed, err := resumeEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := lost.DurableTokens + resumed.TokensOut; got != clean.TokensOut {
		t.Errorf("durable %d + resumed %d = %d, want %d", lost.DurableTokens, resumed.TokensOut, got, clean.TokensOut)
	}
}

// TestStageTimerErrorAborts: a non-loss StageTimer error fails the run
// outright (no watermark semantics).
func TestStageTimerErrorAborts(t *testing.T) {
	s, p, _ := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("remote worker exploded")
	eng.StageTimer = func(int, int, int, bool) (float64, error) { return 0, boom }
	_, err = eng.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("want the timer error surfaced, got %v", err)
	}
	var lost *DeviceLostError
	if errors.As(err, &lost) {
		t.Error("generic errors must not masquerade as device loss")
	}
}

// TestStageTimeValidatesStage: the exported helper rejects out-of-range
// stages and defaults a nil timer.
func TestStageTimeValidatesStage(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	if _, err := StageTime(s, p, nil, -1, 1, 0, true); err == nil {
		t.Error("negative stage must fail")
	}
	if _, err := StageTime(s, p, nil, p.NumStages(), 1, 0, true); err == nil {
		t.Error("stage beyond pipeline depth must fail")
	}
	got, err := StageTime(s, p, nil, 0, 4, 0, true)
	if err != nil || got <= 0 {
		t.Fatalf("prefill stage time %g, %v", got, err)
	}
	want, err := StageTime(s, p, assigner.ProfilerTimer{}, 0, 4, 0, true)
	if err != nil || want != got {
		t.Errorf("nil timer must default to the profiler timer: %g vs %g (%v)", got, want, err)
	}
}

// TestMicroBatches: a pass splits the global batch into full
// micro-batches plus the remainder, and the engine injects exactly those
// sizes into stage 0 for prefill and for every decode round.
func TestMicroBatches(t *testing.T) {
	for _, c := range []struct {
		global, size int
		want         []int
	}{
		{8, 1, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{8, 3, []int{3, 3, 2}},
		{8, 4, []int{4, 4}},
		{8, 8, []int{8}},
		{5, 8, []int{5}},
	} {
		if got := MicroBatches(c.global, c.size); !reflect.DeepEqual(got, c.want) {
			t.Errorf("MicroBatches(%d, %d) = %v, want %v", c.global, c.size, got, c.want)
		}
	}
	s, p, _ := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]int{} // stage-0 batch sizes by round; prefill is -1
	eng.StageTimer = func(stage, batch, round int, prefill bool) (float64, error) {
		if k := round; stage == 0 {
			if prefill {
				k = -1
			}
			got[k] = append(got[k], batch)
		}
		return StageTime(s, p, nil, stage, batch, round, prefill)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for round := -1; round < s.Work.Generate; round++ {
		want := MicroBatches(s.Work.GlobalBatch, p.DecodeMB)
		switch round {
		case -1:
			want = MicroBatches(s.Work.GlobalBatch, p.PrefillMB)
		case 0:
			want = nil // round 0 is the prefill pass
		}
		if !reflect.DeepEqual(got[round], want) {
			t.Errorf("round %d: stage 0 saw batches %v, want %v", round, got[round], want)
		}
	}
}

// TestStageTimeAllocs: StageTime walks the stage's layers in place, so
// pricing a task with the profiler allocates nothing — every in-process
// engine task and every remote worker evaluation goes through it.
func TestStageTimeAllocs(t *testing.T) {
	s, p, _ := chaosBaseline(t)
	var timer assigner.LayerTimer = assigner.ProfilerTimer{}
	allocs := testing.AllocsPerRun(100, func() {
		for stage := 0; stage < p.NumStages(); stage++ {
			for _, prefill := range []bool{true, false} {
				if _, err := StageTime(s, p, timer, stage, p.DecodeMB, 3, prefill); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("StageTime made %.0f allocations per pass over the stages, want 0", allocs)
	}
}
