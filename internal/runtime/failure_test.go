package runtime

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/loader"
)

// crashSchedule is a one-fault chaos schedule: stage fails at atSec and
// comes back after recoverySec.
func crashSchedule(stage int, atSec, recoverySec float64) *chaos.Schedule {
	return &chaos.Schedule{Faults: []chaos.Fault{{
		Kind: chaos.KindCrash, Stage: stage, AtSec: atSec, RecoverySec: recoverySec,
	}}}
}

func TestFailureRecoveryCompletesAllWork(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	clean, err := func() (Stats, error) {
		eng, err := NewEngine(s, p, nil)
		if err != nil {
			return Stats{}, err
		}
		return eng.Run()
	}()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Chaos = crashSchedule(1, clean.LatencySec/3, 2.0)
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every token is still produced.
	if st.TokensOut != clean.TokensOut {
		t.Errorf("tokens after failure %d, want %d", st.TokensOut, clean.TokensOut)
	}
	// Latency grows by at least the outage, at most outage + a couple of
	// pipeline drains.
	if st.LatencySec < clean.LatencySec+2.0*0.9 {
		t.Errorf("failure should add ≥ recovery time: %.2fs vs clean %.2fs", st.LatencySec, clean.LatencySec)
	}
	if st.LatencySec > clean.LatencySec+2.0+clean.LatencySec {
		t.Errorf("failure overhead implausible: %.2fs vs clean %.2fs", st.LatencySec, clean.LatencySec)
	}
	if st.DowntimeSec != 2.0 {
		t.Errorf("downtime %.2f", st.DowntimeSec)
	}
}

func TestFailureDeterministic(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	run := func() Stats {
		eng, _ := NewEngine(s, p, nil)
		eng.Chaos = crashSchedule(0, 0.5, 1.0)
		st, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.LatencySec != b.LatencySec || a.Events != b.Events {
		t.Error("failure injection broke determinism")
	}
}

func TestFailureValidation(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	eng, _ := NewEngine(s, p, nil)
	eng.Chaos = crashSchedule(9, 1, 1)
	if _, err := eng.Run(); err == nil {
		t.Error("expected stage-range error")
	}
	eng.Chaos = crashSchedule(0, -1, 1)
	if _, err := eng.Run(); err == nil {
		t.Error("expected timing error")
	}
}

func TestRecoveryTimeFromLoaderIsRealistic(t *testing.T) {
	// End-to-end §5 story: the recovery window injected into the runtime
	// comes from the loader's chunked-reload model, and a chunked reload
	// recovers much faster than a monolithic one.
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	var shard float64
	bits := p.StageLayerBits(s.Cfg.Layers)[1]
	for _, b := range bits {
		shard += s.Cfg.LayerWeightBytes(16) // FP16 on disk
		_ = b
	}
	chunked, err := loader.RecoveryTime(loader.DefaultResources, shard, 64e6)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := loader.Monolithic(loader.DefaultResources, shard)
	if err != nil {
		t.Fatal(err)
	}
	if chunked >= mono.LoadTime {
		t.Fatalf("chunked recovery %.2fs should beat monolithic %.2fs", chunked, mono.LoadTime)
	}
	eng, _ := NewEngine(s, p, nil)
	eng.Chaos = crashSchedule(1, 0.5, chunked)
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensOut != s.Work.GlobalBatch*s.Work.Generate {
		t.Error("recovery run lost tokens")
	}
}
