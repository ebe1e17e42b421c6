package runtime

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// chaosBaseline plans the standard two-device test workload and runs it
// fault-free, returning the spec, plan, and clean stats.
func chaosBaseline(t *testing.T) (*assigner.Spec, *assigner.Plan, Stats) {
	t.Helper()
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, p, clean
}

// TestChaosOverlappingCrashes injects overlapping transient crashes on
// both stages: the run must still produce every token, accumulate both
// outages, and lose at least one in-flight task.
func TestChaosOverlappingCrashes(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	mid := clean.LatencySec * 0.4
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 0, AtSec: mid, RecoverySec: 0.05},
		{Kind: chaos.KindCrash, Stage: 1, AtSec: mid * 1.1, RecoverySec: 0.04},
	}}
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Chaos = sched
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensOut != clean.TokensOut {
		t.Errorf("tokens %d, want %d", st.TokensOut, clean.TokensOut)
	}
	if st.LatencySec <= clean.LatencySec {
		t.Errorf("latency %.4f not above clean %.4f", st.LatencySec, clean.LatencySec)
	}
	if want := 0.05 + 0.04; st.DowntimeSec < want-1e-9 || st.DowntimeSec > want+1e-9 {
		t.Errorf("downtime %.4f, want %.4f", st.DowntimeSec, want)
	}
	if st.LostTasks < 1 {
		t.Errorf("lost tasks %d, want >= 1", st.LostTasks)
	}
}

// TestChaosStragglerPlusCrashSameStage overlaps a straggler window with a
// crash on the same stage; work must still complete, slower than either
// the clean run or the crash alone.
func TestChaosStragglerPlusCrashSameStage(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	mid := clean.LatencySec * 0.3
	crashOnly := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 0, AtSec: mid, RecoverySec: 0.05},
	}}
	both := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 0, AtSec: mid, RecoverySec: 0.05},
		{Kind: chaos.KindStraggler, Stage: 0, AtSec: mid * 0.5, Factor: 3, DurationSec: clean.LatencySec},
	}}
	run := func(sched *chaos.Schedule) Stats {
		eng, err := NewEngine(s, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Chaos = sched
		st, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := run(crashOnly)
	b := run(both)
	if a.TokensOut != clean.TokensOut || b.TokensOut != clean.TokensOut {
		t.Fatalf("tokens %d / %d, want %d", a.TokensOut, b.TokensOut, clean.TokensOut)
	}
	if b.LatencySec <= a.LatencySec {
		t.Errorf("straggler+crash latency %.4f not above crash-only %.4f", b.LatencySec, a.LatencySec)
	}
}

// TestChaosSlowLink stretches the interconnect hop out of stage 0 and
// expects a slower but complete run.
func TestChaosSlowLink(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindSlowLink, Stage: 0, AtSec: 0, Factor: 50, DurationSec: clean.LatencySec * 2},
	}}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensOut != clean.TokensOut {
		t.Errorf("tokens %d, want %d", st.TokensOut, clean.TokensOut)
	}
	if st.LatencySec <= clean.LatencySec {
		t.Errorf("slow-link latency %.4f not above clean %.4f", st.LatencySec, clean.LatencySec)
	}
}

// TestChaosDeterministicAcrossParallelism proves the -chaos-seed
// contract end to end: the same profile seed yields byte-identical Stats
// whether the plan was searched serially or on 4 or 8 workers.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	var ref *Stats
	for _, par := range []int{1, 4, 8} {
		s := rtSpec(2.2, 1.4)
		s.Parallelism = par
		p := planFor(t, s)
		sched, err := chaos.New(chaos.ProfileMixed, 1234, p.NumStages(), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(s, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Chaos = sched
		st, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = &st
			continue
		}
		if !reflect.DeepEqual(*ref, st) {
			t.Errorf("parallelism %d changed chaos stats:\nref: %+v\ngot: %+v", par, *ref, st)
		}
	}
}

// TestChaosPermanentLossHalts checks the DeviceLostError contract: the
// watermark is consistent with durable tokens, and the error fires only
// when work was actually incomplete.
func TestChaosPermanentLossHalts(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Obs = reg
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 0.6, Permanent: true},
	}}
	_, err = eng.Run()
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want DeviceLostError, got %v", err)
	}
	if lost.Stage != 1 {
		t.Errorf("lost stage %d, want 1", lost.Stage)
	}
	if lost.Device != p.Order[1] {
		t.Errorf("lost device %d, want %d", lost.Device, p.Order[1])
	}
	if !lost.PrefillDone || lost.Watermark < 1 || lost.Watermark >= s.Work.Generate {
		t.Errorf("watermark %d (prefill done %v) implausible at 60%% of the run", lost.Watermark, lost.PrefillDone)
	}
	if lost.DurableTokens != s.Work.GlobalBatch*lost.Watermark {
		t.Errorf("durable tokens %d, want %d", lost.DurableTokens, s.Work.GlobalBatch*lost.Watermark)
	}
	if !strings.Contains(lost.Error(), "permanent device loss") {
		t.Errorf("error text %q", lost.Error())
	}
	if got := reg.Counter("llmpq_chaos_device_lost_total", obs.L("stage", "1")).Value(); got != 1 {
		t.Errorf("device-lost counter %.0f, want 1", got)
	}

	// The same fault scheduled past completion must be ignored.
	eng2, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Chaos = &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 3, Permanent: true},
	}}
	st, err := eng2.Run()
	if err != nil {
		t.Fatalf("post-completion fault must not fail the run: %v", err)
	}
	if st.TokensOut != clean.TokensOut || st.LatencySec != clean.LatencySec {
		t.Errorf("trailing fault changed stats: %+v vs clean %+v", st, clean)
	}
}

// TestChaosResumeFromWatermark runs the loss + resume pair by hand and
// checks token conservation: durable tokens plus the resumed run's
// output must equal the clean total.
func TestChaosResumeFromWatermark(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 0, AtSec: clean.LatencySec * 0.7, Permanent: true},
	}}
	_, err = eng.Run()
	var lost *DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want DeviceLostError, got %v", err)
	}
	resumed, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed.StartRound = lost.Watermark
	st, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := lost.DurableTokens + st.TokensOut; got != clean.TokensOut {
		t.Errorf("durable %d + resumed %d = %d, want %d", lost.DurableTokens, st.TokensOut, got, clean.TokensOut)
	}
	if st.PrefillSec != 0 {
		t.Errorf("resumed run must skip prefill, got PrefillSec %.4f", st.PrefillSec)
	}
}

// TestChaosEngineValidation covers the configuration error paths.
func TestChaosEngineValidation(t *testing.T) {
	s, p, _ := chaosBaseline(t)
	mk := func() *Engine {
		eng, err := NewEngine(s, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := mk()
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.KindCrash, Stage: 5, AtSec: 0.1}}}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "out of [0,") {
		t.Errorf("stage-range error missing, got %v", err)
	}
	eng = mk()
	eng.Chaos = &chaos.Schedule{HorizonSec: 0.2, Faults: []chaos.Fault{{Kind: chaos.KindCrash, Stage: 0, AtSec: 1}}}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "beyond the") {
		t.Errorf("horizon error missing, got %v", err)
	}
	eng = mk()
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.KindCrash, Stage: 0, AtSec: 0.1, RecoverySec: -1}}}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative-recovery error missing, got %v", err)
	}
	eng = mk()
	eng.StartRound = -1
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "start round") {
		t.Errorf("negative start-round error missing, got %v", err)
	}
	eng = mk()
	eng.StartRound = s.Work.Generate
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "start round") {
		t.Errorf("overflow start-round error missing, got %v", err)
	}
}

// TestChaosKVFaultIgnoredByEngine: KV-allocation faults target online
// serving; the offline engine must run unchanged (aside from the
// injected-fault counter).
func TestChaosKVFaultIgnoredByEngine(t *testing.T) {
	s, p, clean := chaosBaseline(t)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Chaos = &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindKVAlloc, AtSec: 0, Factor: 0.9, DurationSec: 10},
	}}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensOut != clean.TokensOut || st.LatencySec != clean.LatencySec {
		t.Errorf("KV fault changed the offline run: %+v vs %+v", st, clean)
	}
}
