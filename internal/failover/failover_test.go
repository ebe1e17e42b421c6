package failover

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hardware"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// table3Spec plans the paper's cluster 3 (3×T4 + V100 serving OPT-30B)
// — the acceptance scenario for permanent device loss.
func table3Spec(t *testing.T) (*assigner.Spec, *assigner.Plan) {
	t.Helper()
	spec, err := core.BuildSpec(core.Request{
		ClusterID:   3,
		GlobalBatch: 8,
		PromptLen:   128,
		Generate:    16,
		Theta:       0.1,
		Group:       6,
		Method:      assigner.MethodDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := assigner.Optimize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res.Plan
}

// TestFailoverTable3PermanentLoss is the headline acceptance scenario:
// lose a device mid-run on a Table-3 cluster, replan on the survivors,
// resume from the watermark, and finish every token.
func TestFailoverTable3PermanentLoss(t *testing.T) {
	spec, plan := table3Spec(t)
	clean, err := (&rt.Engine{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}

	run := func() Report {
		reg := obs.NewRegistry()
		ctl := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}, Obs: reg}
		sched := &chaos.Schedule{Faults: []chaos.Fault{
			{Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 0.6, Permanent: true},
		}}
		rep, err := ctl.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("llmpq_failover_replans_total").Value(); got != 1 {
			t.Errorf("replans counter %.0f, want 1", got)
		}
		return rep
	}
	rep := run()
	if !rep.Replanned || rep.Lost == nil {
		t.Fatal("expected a replan")
	}
	// The degraded plan must be valid for the reduced cluster: same spec
	// with the surviving devices (memory constraints are part of the
	// solve; Validate re-checks structure + stage memory fit).
	degraded := *spec
	reduced, _, err := removeDevices(spec.Cluster, []int{rep.Lost.Device})
	if err != nil {
		t.Fatal(err)
	}
	degraded.Cluster = reduced
	if err := rep.DegradedPlan.Validate(&degraded); err != nil {
		t.Errorf("degraded plan invalid: %v", err)
	}
	if rep.DegradedPlan.NumStages() != spec.Cluster.NumDevices()-1 {
		t.Errorf("degraded plan has %d stages, want %d", rep.DegradedPlan.NumStages(), spec.Cluster.NumDevices()-1)
	}
	// Token conservation: the failover run generates exactly the no-fault
	// total — nothing lost, nothing double-counted.
	if rep.TotalTokens != clean.TokensOut {
		t.Errorf("total tokens %d, want %d (clean run)", rep.TotalTokens, clean.TokensOut)
	}
	if rep.TotalLatencySec <= clean.LatencySec {
		t.Errorf("failover latency %.4f not above clean %.4f", rep.TotalLatencySec, clean.LatencySec)
	}
	if rep.MovedLayers <= 0 || rep.Migration.TransferSec <= 0 {
		t.Errorf("migration empty: %d layers, %.4f s", rep.MovedLayers, rep.Migration.TransferSec)
	}
	// Byte-for-byte repeatability of the whole report.
	if again := run(); !reflect.DeepEqual(rep, again) {
		t.Errorf("failover run not deterministic:\nfirst: %+v\nagain: %+v", rep, again)
	}
}

// TestFailoverCleanRunPassesThrough: without a permanent fault the
// controller reports the plain run.
func TestFailoverCleanRunPassesThrough(t *testing.T) {
	spec, plan := table3Spec(t)
	ctl := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}
	rep, err := ctl.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replanned || rep.Lost != nil {
		t.Error("clean run must not replan")
	}
	if rep.TotalTokens != rep.First.TokensOut || rep.TotalTokens == 0 {
		t.Errorf("pass-through tokens %d vs %d", rep.TotalTokens, rep.First.TokensOut)
	}
}

// TestFailoverPrefillIncompleteLoss: a loss before prefill completes has
// no durable tokens — the resumed run re-executes from scratch and the
// migration ships weights only.
func TestFailoverPrefillIncompleteLoss(t *testing.T) {
	spec, plan := table3Spec(t)
	ctl := &Controller{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}
	rep, err := ctl.Run(&chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindCrash, Stage: 0, AtSec: 1e-4, Permanent: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replanned {
		t.Fatal("expected a replan")
	}
	if rep.Lost.PrefillDone || rep.Lost.Watermark != 0 {
		t.Fatalf("loss at t≈0 must precede prefill: %+v", rep.Lost)
	}
	if rep.Migration.KVBytes != 0 {
		t.Errorf("no KV to migrate before prefill, got %.0f bytes", rep.Migration.KVBytes)
	}
	clean, err := (&rt.Engine{Spec: spec, Plan: plan, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTokens != clean.TokensOut {
		t.Errorf("total tokens %d, want %d", rep.TotalTokens, clean.TokensOut)
	}
}

func TestRemoveDevice(t *testing.T) {
	c := hardware.Clusters[3] // 3×T4 + V100
	out, oldID, err := removeDevices(c, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumDevices() != 3 {
		t.Fatalf("surviving devices %d, want 3", out.NumDevices())
	}
	wantOld := []int{0, 2, 3}
	if !reflect.DeepEqual(oldID, wantOld) {
		t.Errorf("oldID map %v, want %v", oldID, wantOld)
	}
	for i, d := range out.Devices {
		if d.ID != i {
			t.Errorf("device %d reindexed to %d", i, d.ID)
		}
		if want := c.Devices[wantOld[i]].Node; d.Node != want {
			t.Errorf("device %d node %d, want %d", i, d.Node, want)
		}
	}
	if !strings.HasSuffix(out.Name, "-degraded") {
		t.Errorf("degraded cluster name %q", out.Name)
	}
	if _, _, err := removeDevices(c, []int{9}); err == nil {
		t.Error("out-of-range device must fail")
	}
	single := hardware.Clusters[1]
	if _, _, err := removeDevices(single, []int{0}); err == nil {
		t.Error("losing the only device must fail")
	}
}

func TestRemoveDevicesMulti(t *testing.T) {
	c := hardware.Clusters[3] // 3×T4 + V100
	out, oldID, err := removeDevices(c, []int{3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumDevices() != 2 {
		t.Fatalf("surviving devices %d, want 2", out.NumDevices())
	}
	wantOld := []int{0, 2}
	if !reflect.DeepEqual(oldID, wantOld) {
		t.Errorf("oldID map %v, want %v", oldID, wantOld)
	}
	for i, d := range out.Devices {
		if d.ID != i {
			t.Errorf("device %d reindexed to %d", i, d.ID)
		}
		if want := c.Devices[wantOld[i]].Node; d.Node != want {
			t.Errorf("device %d node %d, want %d", i, d.Node, want)
		}
	}
	if _, _, err := removeDevices(c, nil); err == nil {
		t.Error("empty loss set must fail")
	}
	if _, _, err := removeDevices(c, []int{0, 1, 2, 3}); err == nil {
		t.Error("losing every device must fail")
	}
	if _, _, err := removeDevices(c, []int{0, 7}); err == nil {
		t.Error("out-of-range device must fail")
	}
}

// TestTransitionTwoDevices: one replan heals a loss event spanning two
// devices — the path internal/dist takes when a worker serving several
// stages dies. The outcome must be deterministic and name both devices.
func TestTransitionTwoDevices(t *testing.T) {
	spec, plan := table3Spec(t)
	lost := &rt.DeviceLostError{
		Stage: 1, Device: 1, AtSec: 1.5,
		Watermark: 4, DurableTokens: 32, PrefillDone: true,
	}
	run := func() (*Outcome, *obs.Registry) {
		reg := obs.NewRegistry()
		out, err := Transition(spec, plan, nil, nil, Members(spec.Cluster, 1, 2), lost, reg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out, reg
	}
	out, reg := run()
	if got := out.Degraded.Cluster.NumDevices(); got != 2 {
		t.Fatalf("degraded cluster has %d devices, want 2", got)
	}
	if len(out.LostDevices) != 2 || out.LostDevices[0] != out.LostDevice {
		t.Errorf("lost devices %v (first should be %q)", out.LostDevices, out.LostDevice)
	}
	if err := out.Plan.Validate(out.Degraded); err != nil {
		t.Errorf("degraded plan invalid: %v", err)
	}
	if out.StartRound != 4 || out.DurableTokens != 32 {
		t.Errorf("watermark carry-through: round %d tokens %d, want 4/32", out.StartRound, out.DurableTokens)
	}
	if out.MovedLayers <= 0 {
		t.Errorf("two lost devices must move layers, got %d", out.MovedLayers)
	}
	if got := reg.Counter("llmpq_failover_replans_total").Value(); got != 1 {
		t.Errorf("replans counter %.0f, want 1 (a multi-device loss is ONE replan)", got)
	}
	if got := reg.Gauge("llmpq_failover_lost_devices").Value(); got != 2 {
		t.Errorf("lost-devices gauge %.0f, want 2", got)
	}
	// Single-device Replan keeps the one-element list in sync.
	single, err := Replan(spec, plan, nil, lost, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.LostDevices) != 1 || single.LostDevices[0] != single.LostDevice {
		t.Errorf("single-loss LostDevices %v vs LostDevice %q", single.LostDevices, single.LostDevice)
	}
	// Byte-for-byte repeatability.
	again, _ := run()
	if !reflect.DeepEqual(out, again) {
		t.Errorf("multi-device replan not deterministic:\nfirst: %+v\nagain: %+v", out, again)
	}
}

func TestMigrationCost(t *testing.T) {
	spec, _ := table3Spec(t)
	br, err := costmodel.MigrationCost(costmodel.MigrationInput{
		Cfg: spec.Cfg, MovedLayerBits: []int{4, 4, 8}, GlobalBatch: 8,
		KVSeqLen: 144, Link: spec.Cluster.InterNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.WeightBytes <= 0 || br.KVBytes <= 0 || br.TransferSec <= 0 {
		t.Errorf("degenerate breakdown: %+v", br)
	}
	if br.TotalBytes != br.WeightBytes+br.KVBytes {
		t.Errorf("total %.0f != %.0f + %.0f", br.TotalBytes, br.WeightBytes, br.KVBytes)
	}
	// Zero moved layers = zero cost, no error.
	zero, err := costmodel.MigrationCost(costmodel.MigrationInput{Cfg: spec.Cfg})
	if err != nil || zero.TotalBytes != 0 {
		t.Errorf("empty migration: %+v, %v", zero, err)
	}
	if _, err := costmodel.MigrationCost(costmodel.MigrationInput{
		Cfg: spec.Cfg, MovedLayerBits: []int{5}, GlobalBatch: 8, KVSeqLen: 10,
	}); err == nil {
		t.Error("bitwidth 5 must be rejected")
	}
	if _, err := costmodel.MigrationCost(costmodel.MigrationInput{
		Cfg: spec.Cfg, MovedLayerBits: []int{4}, GlobalBatch: 0, KVSeqLen: 10,
	}); err == nil {
		t.Error("zero batch must be rejected")
	}
}
