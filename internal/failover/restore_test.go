package failover

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// healSchedule builds the canonical heal scenario on the Table-3
// cluster: a permanent loss at 60% of the clean latency that heals
// shortly after, with the given flap count.
func healSched(clean rt.Stats, flaps int) *chaos.Schedule {
	return &chaos.Schedule{Faults: []chaos.Fault{{
		Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 0.6,
		Permanent: true, RecoverAfterSec: clean.LatencySec * 0.05, Flaps: flaps,
	}}}
}

// TestFailoverHealRestoresCapacity is the heal acceptance scenario: lose
// a device mid-run, replan degraded, then — once the device returns and
// holds its lease for the dwell — replan back onto the full cluster and
// finish there. Token conservation must hold across all three hops and
// the whole report must be byte-deterministic.
func TestFailoverHealRestoresCapacity(t *testing.T) {
	spec, plan := table3Spec(t)
	clean, err := (&rt.Engine{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}

	// Each run gets a freshly built spec (cold solve cache) — the shape
	// of two separate seeded processes, whose artifacts must byte-match.
	// The registry text is snapshotted before any assertion can register
	// new zero-valued families via lookup.
	run := func() (Report, *obs.Registry, string) {
		s, p := table3Spec(t)
		reg := obs.NewRegistry()
		ctl := &Controller{
			Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}, Obs: reg,
			HealDwellSec: clean.LatencySec * 0.02,
		}
		rep, err := ctl.Run(healSched(clean, 0))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return rep, reg, b.String()
	}
	rep, reg, text := run()
	if !rep.Replanned || !rep.Restored || rep.Quarantined {
		t.Fatalf("expected replan+restore, got replanned=%v restored=%v quarantined=%v",
			rep.Replanned, rep.Restored, rep.Quarantined)
	}
	if rep.RestoreHalt == nil || rep.RestoreHalt.Watermark < rep.Lost.Watermark {
		t.Fatalf("restore halt %+v must not regress the loss watermark %d", rep.RestoreHalt, rep.Lost.Watermark)
	}
	// The restored plan serves the ORIGINAL cluster again — and because
	// the solve is deterministic in the membership, the fleet replans
	// back to exactly the plan it ran before the loss.
	if err := rep.RestoredPlan.Validate(spec); err != nil {
		t.Errorf("restored plan invalid on the original spec: %v", err)
	}
	if !reflect.DeepEqual(rep.RestoredPlan, plan) {
		t.Errorf("full restore did not return to the pre-loss plan:\nrestored: %+v\noriginal: %+v", rep.RestoredPlan, plan)
	}
	// Token conservation across loss → degraded → restore → final.
	if rep.TotalTokens != clean.TokensOut {
		t.Errorf("total tokens %d, want %d (clean run)", rep.TotalTokens, clean.TokensOut)
	}
	if rep.Final.TokensOut <= 0 {
		t.Error("final run on the restored plan generated nothing")
	}
	if rep.TotalLatencySec <= clean.LatencySec {
		t.Errorf("heal-cycle latency %.4f not above clean %.4f", rep.TotalLatencySec, clean.LatencySec)
	}
	if got := reg.Counter("llmpq_failover_restore_total").Value(); got != 1 {
		t.Errorf("restore counter %.0f, want 1", got)
	}
	if got := reg.Counter("llmpq_heal_device_returns_total").Value(); got != 1 {
		t.Errorf("heal returns counter %.0f, want 1", got)
	}
	if got := reg.Counter("llmpq_heal_quarantined_total").Value(); got != 0 {
		t.Errorf("quarantine counter %.0f, want 0", got)
	}
	// Seeded flap schedules must reproduce byte-for-byte.
	again, _, text2 := run()
	if !reflect.DeepEqual(rep, again) {
		t.Errorf("heal run not deterministic:\nfirst: %+v\nagain: %+v", rep, again)
	}
	if text != text2 {
		t.Error("sim registries differ across identical heal runs")
	}
}

// TestFailoverFlapQuarantine: a device that flaps past the tolerance is
// not replanned back in — the run finishes degraded, tokens conserved.
func TestFailoverFlapQuarantine(t *testing.T) {
	spec, plan := table3Spec(t)
	clean, err := (&rt.Engine{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}, Obs: reg}
	rep, err := ctl.Run(healSched(clean, 2)) // 2 flaps >= default tolerance 2
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quarantined || rep.Restored {
		t.Fatalf("2 flaps must quarantine: quarantined=%v restored=%v", rep.Quarantined, rep.Restored)
	}
	if rep.TotalTokens != clean.TokensOut {
		t.Errorf("quarantined run tokens %d, want %d", rep.TotalTokens, clean.TokensOut)
	}
	if got := reg.Counter("llmpq_heal_quarantined_total").Value(); got != 1 {
		t.Errorf("quarantine counter %.0f, want 1", got)
	}
	if got := reg.Counter("llmpq_failover_restore_total").Value(); got != 0 {
		t.Errorf("restore counter %.0f, want 0 when quarantined", got)
	}
	// A raised tolerance admits the same schedule.
	ctl2 := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}, FlapTolerance: 3}
	rep2, err := ctl2.Run(healSched(clean, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined || !rep2.Restored {
		t.Errorf("tolerance 3 must admit 2 flaps: quarantined=%v restored=%v", rep2.Quarantined, rep2.Restored)
	}
	if rep2.TotalTokens != clean.TokensOut {
		t.Errorf("restored run tokens %d, want %d", rep2.TotalTokens, clean.TokensOut)
	}
}

// TestFailoverHealAfterDrain: a heal scheduled past the degraded run's
// completion never fires — the report is the plain shrink failover.
func TestFailoverHealAfterDrain(t *testing.T) {
	spec, plan := table3Spec(t)
	clean, err := (&rt.Engine{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}
	sched := &chaos.Schedule{Faults: []chaos.Fault{{
		Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 0.6,
		Permanent: true, RecoverAfterSec: clean.LatencySec * 100,
	}}}
	rep, err := ctl.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored || rep.Quarantined {
		t.Errorf("late heal must not restore: restored=%v quarantined=%v", rep.Restored, rep.Quarantined)
	}
	if !rep.Replanned || rep.TotalTokens != clean.TokensOut {
		t.Errorf("shrink failover broken: replanned=%v tokens=%d want %d", rep.Replanned, rep.TotalTokens, clean.TokensOut)
	}
}

// TestTransitionValidation pins the restore preconditions.
func TestTransitionValidation(t *testing.T) {
	spec, plan := table3Spec(t)
	halt := &rt.RestoreHaltError{AtSec: 1, Watermark: 4, DurableTokens: 32, PrefillDone: true}
	if _, err := Transition(spec, plan, nil, nil, Members(spec.Cluster), halt, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "degraded outcome") {
		t.Errorf("nil degraded outcome accepted: %v", err)
	}
	lost := &rt.DeviceLostError{Stage: 1, Device: 1, AtSec: 1, Watermark: 4, DurableTokens: 32, PrefillDone: true}
	out, err := Replan(spec, plan, nil, lost, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transition(spec, plan, nil, out, Members(spec.Cluster), nil, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "halt watermark") {
		t.Errorf("nil halt accepted: %v", err)
	}
}

// TestTransitionPartialRestore: when only some lost devices return, the
// restore solves on the partially re-expanded cluster and names exactly
// the returned devices.
func TestTransitionPartialRestore(t *testing.T) {
	spec, plan := table3Spec(t)
	lost := &rt.DeviceLostError{Stage: 1, Device: 1, AtSec: 1, Watermark: 4, DurableTokens: 32, PrefillDone: true}
	// Lose devices 1 and 2 together; only device 1 comes back.
	out, err := Transition(spec, plan, nil, nil, Members(spec.Cluster, 1, 2), lost, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	halt := &rt.RestoreHaltError{AtSec: 2, Watermark: 6, DurableTokens: 48, PrefillDone: true}
	rout, err := Transition(spec, plan, nil, out, Members(spec.Cluster, 2), halt, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := rout.Degraded.Cluster.NumDevices(); n != spec.Cluster.NumDevices()-1 {
		t.Errorf("partial restore cluster has %d devices, want %d", n, spec.Cluster.NumDevices()-1)
	}
	want := []string{spec.Cluster.Devices[1].GPU.Name}
	if !reflect.DeepEqual(rout.RestoredDevices, want) {
		t.Errorf("restored devices %v, want %v", rout.RestoredDevices, want)
	}
	if err := rout.Plan.Validate(rout.Degraded); err != nil {
		t.Errorf("partial-restore plan invalid: %v", err)
	}
	if rout.StartRound != halt.Watermark || rout.DurableTokens != halt.DurableTokens {
		t.Errorf("resume point %d/%d, want %d/%d", rout.StartRound, rout.DurableTokens, halt.Watermark, halt.DurableTokens)
	}
}

// TestObserveRestore: journal recovery re-exports the restore families
// without recomputing the solve.
func TestObserveRestore(t *testing.T) {
	reg := obs.NewRegistry()
	halt := &rt.RestoreHaltError{AtSec: 3, Watermark: 5, DurableTokens: 40, PrefillDone: true}
	Observe(reg, nil, &Outcome{
		Halt: halt, RestoredDevices: []string{"T4", "V100"}, MovedLayers: 7,
		Migration: costmodel.MigrationBreakdown{TotalBytes: 1024, TransferSec: 0.5}, StartRound: 5,
	})
	if got := reg.Counter("llmpq_failover_restore_total").Value(); got != 1 {
		t.Errorf("restore counter %.0f, want 1", got)
	}
	if got := reg.Counter("llmpq_heal_device_returns_total").Value(); got != 2 {
		t.Errorf("heal returns %.0f, want 2", got)
	}
	if got := reg.Gauge("llmpq_failover_restore_moved_layers").Value(); got != 7 {
		t.Errorf("moved layers gauge %.0f, want 7", got)
	}
	if got := reg.Gauge("llmpq_failover_restore_resume_round").Value(); got != 5 {
		t.Errorf("resume round gauge %.0f, want 5", got)
	}
}
