// Package failover is the self-healing replanning loop on top of the
// chaos fault model (DESIGN.md §10). LLM-PQ's offline planner assumes
// the cluster it planned for is the cluster it serves on; when a device
// is permanently lost mid-run (preemption, hardware failure), the
// Controller closes the loop:
//
//  1. run the pipeline under the chaos schedule until it either finishes
//     or halts with a runtime.DeviceLostError carrying the
//     completed-token watermark;
//  2. re-invoke assigner.Optimize on the reduced cluster (same workload,
//     same quality target θ, same Parallelism), producing a degraded but
//     valid plan — partition and quantization adapt to the surviving
//     devices exactly as the paper's planner adapts to heterogeneity;
//  3. cost the migration: every layer that lands on a different physical
//     device re-ships its quantized weights (at the new plan's
//     precision) plus the resident KV state over the interconnect
//     (costmodel.MigrationCost);
//  4. resume the pipeline from the watermark (runtime.Engine.StartRound)
//     so no generated token is produced twice and none is lost.
//
// The whole loop is deterministic: same spec, plan, and chaos schedule
// reproduce the same report byte-for-byte.
package failover

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/hardware"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// Metric families exported by the controller (DESIGN.md §10).
const (
	metricReplans        = "llmpq_failover_replans_total"
	metricLostDevices    = "llmpq_failover_lost_devices"
	metricMovedLayers    = "llmpq_failover_moved_layers"
	metricMigrationBytes = "llmpq_failover_migration_bytes"
	metricMigrationSecs  = "llmpq_failover_migration_seconds"
	metricResumeRound    = "llmpq_failover_resume_round"
	// metricReplanSeconds is the wall-clock latency of one replan solve —
	// the recovery-path number the SolveCache exists to shrink. Unlike the
	// families above it is wall-clock-dependent, so it lands on a control
	// registry only (simctrl.manifest pins it ctrl by exact name).
	metricReplanSeconds = "llmpq_failover_replan_seconds"

	// The restore (heal) half of the loop: a capacity-restoring replan
	// back onto returned devices. Same sim/ctrl split as the shrink
	// families above.
	metricRestores            = "llmpq_failover_restore_total"
	metricRestoredDevices     = "llmpq_failover_restored_devices"
	metricRestoreMovedLayers  = "llmpq_failover_restore_moved_layers"
	metricRestoreMigrationB   = "llmpq_failover_restore_migration_bytes"
	metricRestoreMigrationSec = "llmpq_failover_restore_migration_seconds"
	metricRestoreResumeRound  = "llmpq_failover_restore_resume_round"
	// metricRestoreSeconds mirrors metricReplanSeconds for the restore
	// solve (ctrl by exact name in simctrl.manifest).
	metricRestoreSeconds = "llmpq_failover_restore_seconds"
	// Heal-policy counters (sim: both derive from the schedule alone).
	metricHealReturns     = "llmpq_heal_device_returns_total"
	metricHealQuarantined = "llmpq_heal_quarantined_total"
)

// Report summarizes one fault-tolerant serving run.
type Report struct {
	// Replanned is false when the run finished without a permanent loss
	// (First carries the stats; the migration fields are zero).
	Replanned bool
	// First is the initial run: the complete run when !Replanned,
	// otherwise the partial stats are unavailable (the engine halts) and
	// only Lost describes it.
	First rt.Stats
	// Lost is the device-loss event that triggered the replan (nil when
	// !Replanned).
	Lost *rt.DeviceLostError
	// LostDevice names the physical device that died (the first of
	// LostDevices).
	LostDevice string
	// LostDevices names every physical device the replan dropped.
	LostDevices []string
	// DegradedPlan is the plan Optimize produced on the reduced cluster.
	DegradedPlan *assigner.Plan
	// MovedLayers counts layers shipped to a different physical device.
	MovedLayers int
	// Migration itemizes the re-shipping cost.
	Migration costmodel.MigrationBreakdown
	// Resumed is the watermark-resumed run on the degraded plan.
	Resumed rt.Stats
	// TotalTokens is the end-to-end generated-token count: durable tokens
	// at the last transition plus the finishing run's output. Equals the
	// no-fault run's TokensOut — nothing is lost, nothing is
	// double-counted.
	TotalTokens int
	// TotalLatencySec sums the epochs: each halted run's halt instant and
	// the migration window after it, then the finishing run's latency.
	TotalLatencySec float64

	// Restored is true when the lost device healed and a
	// capacity-restoring replan brought it back mid-run.
	Restored bool
	// RestoreHalt is the voluntary halt that triggered the restore (nil
	// when none fired). It is set without Restored when the halt found
	// nothing to restore and the run continued degraded.
	RestoreHalt *rt.RestoreHaltError
	// RestoredPlan is the plan solved on the re-expanded cluster.
	RestoredPlan *assigner.Plan
	// RestoredDevices names the physical devices replanned back in.
	RestoredDevices []string
	// RestoreMovedLayers counts layers migrated back onto returned
	// devices; RestoreMigration itemizes the cost.
	RestoreMovedLayers int
	RestoreMigration   costmodel.MigrationBreakdown
	// Final is the run that finished on the restored plan (zero unless
	// Restored).
	Final rt.Stats
	// Quarantined is true when the healed device flapped past the
	// controller's tolerance and was deliberately NOT replanned back in;
	// the run finished degraded.
	Quarantined bool
}

// Apply records one transition in the report: a shrink fills the loss
// half, a restore the heal half.
func (r *Report) Apply(out *Outcome) {
	if out.Halt != nil {
		r.Restored = true
		r.RestoreHalt = out.Halt
		r.RestoredPlan = out.Plan
		r.RestoredDevices = out.RestoredDevices
		r.RestoreMovedLayers = out.MovedLayers
		r.RestoreMigration = out.Migration
		return
	}
	r.Replanned = true
	r.Lost = out.Lost
	r.LostDevice = out.LostDevice
	r.LostDevices = out.LostDevices
	r.DegradedPlan = out.Plan
	r.MovedLayers = out.MovedLayers
	r.Migration = out.Migration
}

// Finish records the run that completed the job: First, Resumed or Final
// by the transitions before it, with durable the tokens credited before
// it started. The totals are a sum over epochs — every halted run
// contributes its halt instant and the migration window after it, the
// finishing run its own latency — added in epoch order, so the float sum
// is reproducible.
func (r *Report) Finish(run rt.Stats, durable int) {
	switch {
	case r.Restored:
		r.Final = run
	case r.Replanned:
		r.Resumed = run
	default:
		r.First = run
	}
	var sec float64
	if r.Lost != nil {
		sec += r.Lost.AtSec
		sec += r.Migration.TransferSec
	}
	if r.RestoreHalt != nil {
		sec += r.RestoreHalt.AtSec
		sec += r.RestoreMigration.TransferSec
	}
	r.TotalTokens = durable + run.TokensOut
	r.TotalLatencySec = sec + run.LatencySec
}

// ReplanFailedError reports that a device loss could not be healed — the
// reduced cluster admits no feasible plan. The triggering DeviceLostError
// stays reachable through errors.As, so callers can still read the
// watermark and durable-token count of the halt even though recovery
// failed.
type ReplanFailedError struct {
	Lost *rt.DeviceLostError
	// Survivors is the device count of the reduced cluster.
	Survivors int
	// Err is the planner's infeasibility error.
	Err error
}

func (e *ReplanFailedError) Error() string {
	return fmt.Sprintf("failover: no feasible degraded plan on %d surviving devices (lost: %v): %v",
		e.Survivors, e.Lost, e.Err)
}

// Unwrap exposes both the planner error and the device loss to
// errors.Is/As chains.
func (e *ReplanFailedError) Unwrap() []error { return []error{e.Err, e.Lost} }

// Outcome is one computed transition: the spec and plan for the new
// membership, the migration bill, and where to resume — everything a
// caller needs to restart execution, without the execution itself.
// Controller.Run resumes on the in-process engine; internal/dist's
// coordinator reconfigures its workers instead.
type Outcome struct {
	// Lost is the loss that triggered a shrink, Halt the voluntary halt
	// that triggered a restore. Exactly one is set: it is the
	// transition's direction.
	Lost *rt.DeviceLostError
	Halt *rt.RestoreHaltError
	// Degraded is a copy of the original spec on the new membership: the
	// reduced cluster after a shrink, the re-expanded one after a
	// restore.
	Degraded *assigner.Spec
	// Plan is the plan Optimize produced on that cluster.
	Plan *assigner.Plan
	// OldID maps the new cluster's device IDs back to original IDs.
	OldID []int
	// LostDevice names the physical device that died (the first of
	// LostDevices — kept for single-loss callers and reports).
	LostDevice string
	// LostDevices names every physical device a shrink dropped. A single
	// chaos crash lists one; a dist worker that served several stages
	// takes all of its devices down at once.
	LostDevices []string
	// RestoredDevices names the physical devices a restore brought back.
	RestoredDevices []string
	// MovedLayers counts layers whose physical home changed.
	MovedLayers int
	// Migration itemizes the re-shipping cost.
	Migration costmodel.MigrationBreakdown
	// StartRound is the watermark round the resumed run starts from (0
	// when prefill had not completed — re-prefill from scratch). Rounds
	// are absolute, so token conservation holds across any number of
	// transitions.
	StartRound int
	// DurableTokens is the token count that survives the halt (0 before
	// prefill completes).
	DurableTokens int
}

// Members lists the device IDs of c minus drop, in ID order: the
// membership argument of Transition.
func Members(c hardware.Cluster, drop ...int) []int {
	var ids []int
	for _, d := range c.Devices {
		if !slices.Contains(drop, d.ID) {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// Replan is Transition for a single device loss off the original plan.
func Replan(spec *assigner.Spec, plan *assigner.Plan, timer assigner.LayerTimer, lost *rt.DeviceLostError, reg, ctrlReg *obs.Registry, spans *obs.SpanRecorder) (*Outcome, error) {
	return Transition(spec, plan, timer, nil, Members(spec.Cluster, lost.Device), lost, reg, ctrlReg, spans)
}

// Transition is the failover loop's one planning step, for losing devices
// and for getting them back alike: re-solve the workload on members (the
// original-cluster device IDs serving after the transition), diff layer
// homes against the epoch serving until the halt, and price migrating
// weights and resident KV state.
//
// spec and plan are the ORIGINAL pre-loss spec and plan; cur is the epoch
// serving until the halt (nil: plan on the full cluster). halt sets the
// direction: a *rt.DeviceLostError shrinks, a *rt.RestoreHaltError
// restores. The solve is warm only through Spec.Cache: combinations the
// cache already holds (the pre-loss solve's, an earlier transition's)
// are reused, and the plan is byte-identical to a cold solve of the same
// membership (DESIGN.md §13).
//
// The outcome is exported through Observe; ctrlReg, when non-nil, also
// receives the wall-clock solve latency (control registry — never
// byte-diffed). A shrink with no feasible plan surfaces as a
// *ReplanFailedError that keeps the DeviceLostError reachable.
func Transition(spec *assigner.Spec, plan *assigner.Plan, timer assigner.LayerTimer, cur *Outcome, members []int, halt error, reg, ctrlReg *obs.Registry, spans *obs.SpanRecorder) (*Outcome, error) {
	solveStart := time.Now() //llmpq:allow(simwallclock): solve latency is reported on the control registry only; the plan is independent of it
	out := &Outcome{}
	switch h := halt.(type) {
	case *rt.DeviceLostError:
		out.Lost = h
	case *rt.RestoreHaltError:
		out.Halt = h
	}
	var watermark, durable int
	var prefillDone bool
	switch {
	case out.Lost != nil:
		watermark, durable, prefillDone = out.Lost.Watermark, out.Lost.DurableTokens, out.Lost.PrefillDone
	case out.Halt == nil:
		return nil, fmt.Errorf("failover: transition without a halt watermark")
	case cur == nil:
		return nil, fmt.Errorf("failover: restore without a degraded outcome to restore from")
	default:
		watermark, durable, prefillDone = out.Halt.Watermark, out.Halt.DurableTokens, out.Halt.PrefillDone
	}
	cluster, oldID, err := subCluster(spec.Cluster, members)
	if err != nil {
		return nil, err
	}
	from, fromID := plan, Members(spec.Cluster)
	if cur != nil {
		from, fromID = cur.Plan, cur.OldID
	}
	if err := out.nameDevices(spec.Cluster, fromID, oldID); err != nil {
		return nil, err
	}

	next := *spec
	next.Cluster = cluster
	res, err := assigner.Optimize(&next, timer)
	if err != nil {
		if out.Lost != nil {
			return nil, &ReplanFailedError{Lost: out.Lost, Survivors: cluster.NumDevices(), Err: err}
		}
		return nil, fmt.Errorf("failover: no feasible restored plan on %d devices: %w", cluster.NumDevices(), err)
	}
	out.Degraded, out.Plan, out.OldID = &next, res.Plan, oldID

	// Layers whose physical home changed must migrate: quantized weights
	// at the new plan's precision, plus each resident request's KV state
	// up to the watermark (none when prefill had not completed — the
	// resumed run re-prefills from scratch).
	oldHome := layerHomes(from, spec.Cfg.Layers, fromID)
	newHome := layerHomes(res.Plan, spec.Cfg.Layers, oldID)
	newBits := res.Plan.LayerBits(spec.Cfg.Layers)
	var movedBits []int
	for l := 0; l < spec.Cfg.Layers; l++ {
		if newHome[l] != oldHome[l] {
			movedBits = append(movedBits, newBits[l])
		}
	}
	out.MovedLayers = len(movedBits)
	kvSeq := 0
	if prefillDone {
		kvSeq = spec.Work.Prompt + watermark
		out.StartRound = watermark
		out.DurableTokens = durable
	}
	out.Migration, err = costmodel.MigrationCost(costmodel.MigrationInput{
		Cfg: spec.Cfg, MovedLayerBits: movedBits, GlobalBatch: spec.Work.GlobalBatch,
		KVSeqLen: kvSeq, KVBits: spec.KVBits, Link: spec.Cluster.InterNode,
	})
	if err != nil {
		return nil, err
	}
	Observe(reg, spans, out)
	// Flush the cache's deterministic hit/miss counters alongside the
	// transition they served (no-op when spec.Cache or reg is nil).
	spec.Cache.Export(reg)
	//llmpq:allow(simwallclock): wall-clock observation on the control registry only
	ctrlReg.Histogram(out.direction().solveSeconds, obs.TimeBuckets()).Observe(time.Since(solveStart).Seconds())
	return out, nil
}

// nameDevices fills LostDevice/LostDevices (a shrink: the lost device
// first, then every other member that left, in ID order) or
// RestoredDevices (a restore: every member that returned) from the
// membership before (fromID) and after (oldID) the transition.
func (o *Outcome) nameDevices(c hardware.Cluster, fromID, oldID []int) error {
	if o.Lost == nil {
		for _, id := range oldID {
			if !slices.Contains(fromID, id) {
				o.RestoredDevices = append(o.RestoredDevices, c.Devices[id].GPU.Name)
			}
		}
		return nil
	}
	d := o.Lost.Device
	if d < 0 || d >= len(c.Devices) || slices.Contains(oldID, d) {
		return fmt.Errorf("failover: lost device %d is not leaving a %d-device cluster", d, len(c.Devices))
	}
	o.LostDevice = c.Devices[d].GPU.Name
	o.LostDevices = []string{o.LostDevice}
	for _, id := range fromID {
		if id != d && !slices.Contains(oldID, id) {
			o.LostDevices = append(o.LostDevices, c.Devices[id].GPU.Name)
		}
	}
	return nil
}

// direction names the metric families and the span one transition
// direction exports.
type direction struct {
	total, devices, moved, bytes, secs, resume string
	// returns counts one increment per returned device ("" for a shrink).
	returns string
	// solveSeconds is the wall-clock solve histogram (ctrl registry).
	solveSeconds string
	span         string
}

var (
	shrinkFamilies = direction{
		metricReplans, metricLostDevices, metricMovedLayers, metricMigrationBytes,
		metricMigrationSecs, metricResumeRound, "", metricReplanSeconds, "migrate",
	}
	restoreFamilies = direction{
		metricRestores, metricRestoredDevices, metricRestoreMovedLayers, metricRestoreMigrationB,
		metricRestoreMigrationSec, metricRestoreResumeRound, metricHealReturns, metricRestoreSeconds, "migrate-back",
	}
)

func (o *Outcome) direction() direction {
	if o.Halt != nil {
		return restoreFamilies
	}
	return shrinkFamilies
}

// Observe exports one transition, keyed by its direction: a shrink
// exports the llmpq_failover_* families and a migrate span on the lost
// stage's thread; a restore exports the llmpq_failover_restore_*
// families, one llmpq_heal_device_returns_total increment per returned
// device, and a migrate-back span on thread 0. Transition calls it for a
// fresh transition; a coordinator recovering from its journal calls it
// for the transitions it resumes from, which it did not compute this
// run, so its sim registry still reports them.
func Observe(reg *obs.Registry, spans *obs.SpanRecorder, out *Outcome) {
	d := out.direction()
	devices, at, tid := out.LostDevices, 0.0, 0
	if out.Halt != nil {
		devices, at = out.RestoredDevices, out.Halt.AtSec
	} else {
		at, tid = out.Lost.AtSec, out.Lost.Stage
	}
	reg.Counter(d.total).Inc()
	reg.Gauge(d.devices).Set(float64(len(devices)))
	reg.Gauge(d.moved).Set(float64(out.MovedLayers))
	reg.Gauge(d.bytes).Set(out.Migration.TotalBytes)
	reg.Gauge(d.secs).Set(out.Migration.TransferSec)
	reg.Gauge(d.resume).Set(float64(out.StartRound))
	if d.returns != "" {
		for range devices {
			reg.Counter(d.returns).Inc()
		}
	}
	if spans != nil {
		spans.Record(obs.Span{
			Name: d.span, Cat: "failover", TID: tid,
			Start: at, Dur: out.Migration.TransferSec,
			Args: map[string]string{
				"moved_layers": fmt.Sprintf("%d", out.MovedLayers),
				"bytes":        fmt.Sprintf("%.0f", out.Migration.TotalBytes),
			},
		})
	}
}

// Controller reacts to permanent device loss by replanning on the
// reduced cluster and resuming from the completed-token watermark.
type Controller struct {
	Spec  *assigner.Spec
	Plan  *assigner.Plan
	Timer assigner.LayerTimer
	// Obs receives the engine's metrics plus the llmpq_failover_* family;
	// nil runs uninstrumented.
	Obs *obs.Registry
	// Spans, when non-nil, records engine task spans plus one migration
	// span covering the replan-and-reship window.
	Spans *obs.SpanRecorder
	// CtrlObs, when non-nil, receives the wall-clock
	// llmpq_failover_replan_seconds histogram. Kept separate from Obs:
	// replan latency depends on the host, so it must never land in the
	// byte-diffed sim registry.
	CtrlObs *obs.Registry
	// HealDwellSec is the lease-stability dwell a returned device must
	// hold before the capacity-restoring replan fires: the restore halt
	// is scheduled that long after the fault's heal instant, so a device
	// about to flap again never triggers a migrate-back it immediately
	// invalidates. 0 restores as soon as the device returns.
	HealDwellSec float64
	// FlapTolerance is how many losses a healing device may take; the
	// next one quarantines it (Quarantined): the run finishes degraded and
	// Report.Quarantined is set. 0 means DefaultFlapTolerance.
	FlapTolerance int
}

// DefaultFlapTolerance is the flap tolerance when none is configured.
const DefaultFlapTolerance = 2

// Quarantined is the flap rule the controller and the dist coordinator
// share: tol losses are tolerated (tol <= 0 means the default), the next is not.
func Quarantined(losses, tol int) bool {
	if tol <= 0 {
		tol = DefaultFlapTolerance
	}
	return losses > tol
}

// healFault returns the schedule's permanent crash when it carries a
// heal schedule (RecoverAfterSec > 0), nil otherwise.
func healFault(sched *chaos.Schedule) *chaos.Fault {
	if sched == nil {
		return nil
	}
	for i := range sched.Faults {
		f := &sched.Faults[i]
		if f.Kind == chaos.KindCrash && f.Permanent && f.RecoverAfterSec > 0 {
			return f
		}
	}
	return nil
}

// Run executes the pipeline under the chaos schedule, self-healing
// through at most one permanent device loss (chaos.Schedule.Validate
// enforces the at-most-one invariant). When the schedule heals the loss
// (Fault.RecoverAfterSec) and the device's 1+Flaps losses stay within
// FlapTolerance, the degraded run voluntarily halts once the returned
// device has held a stable lease for HealDwellSec and a
// capacity-restoring Transition finishes the job on the re-expanded
// cluster; a flappier device is quarantined and the run finishes
// degraded. Every branch is deterministic: same spec, plan, and schedule
// reproduce the same report byte-for-byte.
func (c *Controller) Run(sched *chaos.Schedule) (Report, error) {
	eng := &rt.Engine{Spec: c.Spec, Plan: c.Plan, Timer: c.Timer, Chaos: sched, Obs: c.Obs, Spans: c.Spans}
	stats, err := eng.Run()
	var lost *rt.DeviceLostError
	switch {
	case err == nil:
		var rep Report
		rep.Finish(stats, 0)
		return rep, nil
	case !errors.As(err, &lost):
		return Report{}, err
	}
	return c.replan(sched, lost)
}

// replan rebuilds the pipeline after a permanent device loss and resumes
// it from the watermark, arming the restore halt when the schedule heals
// the loss.
func (c *Controller) replan(sched *chaos.Schedule, lost *rt.DeviceLostError) (Report, error) {
	out, err := Transition(c.Spec, c.Plan, c.Timer, nil, Members(c.Spec.Cluster, lost.Device), lost, c.Obs, c.CtrlObs, c.Spans)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	rep.Apply(out)

	eng := &rt.Engine{Spec: out.Degraded, Plan: out.Plan, Timer: c.Timer, StartRound: out.StartRound, Obs: c.Obs, Spans: c.Spans}
	if heal := healFault(sched); heal != nil {
		if Quarantined(1+heal.Flaps, c.FlapTolerance) {
			// Flap damping: the device keeps bouncing; replanning it back
			// in would trade a migrate-back bill for capacity about to
			// vanish again. Serve the rest of the run degraded.
			rep.Quarantined = true
			c.Obs.Counter(metricHealQuarantined).Inc()
		} else {
			// The device stabilizes RecoverAfterSec after each loss, flaps
			// included, then must hold its lease for the dwell. The resumed
			// run's clock starts after the loss and the migration window,
			// so shift the stability instant into resumed-run time (clamped
			// to epsilon: a heal already stable when the resumed run starts
			// restores immediately).
			at := heal.RecoverAfterSec*float64(1+heal.Flaps) + c.HealDwellSec - rep.Migration.TransferSec
			if at < 1e-9 {
				at = 1e-9
			}
			eng.RestoreAtSec = at
		}
	}
	resumed, err := eng.Run()
	if err != nil {
		var halt *rt.RestoreHaltError
		if !errors.As(err, &halt) {
			return Report{}, fmt.Errorf("failover: resumed run failed: %w", err)
		}
		return c.restore(rep, out, halt)
	}
	rep.Finish(resumed, out.DurableTokens)
	return rep, nil
}

// restore finishes a degraded run that halted for a capacity-restoring
// replan: re-solve on the full original cluster, migrate back, and run
// from the halt watermark to completion.
func (c *Controller) restore(rep Report, degraded *Outcome, halt *rt.RestoreHaltError) (Report, error) {
	out, err := Transition(c.Spec, c.Plan, c.Timer, degraded, Members(c.Spec.Cluster), halt, c.Obs, c.CtrlObs, c.Spans)
	if err != nil {
		return Report{}, err
	}
	rep.Apply(out)
	eng := &rt.Engine{Spec: out.Degraded, Plan: out.Plan, Timer: c.Timer, StartRound: out.StartRound, Obs: c.Obs, Spans: c.Spans}
	final, err := eng.Run()
	if err != nil {
		return Report{}, fmt.Errorf("failover: restored run failed: %w", err)
	}
	// The halt watermark is absolute (resumed runs carry rounds forward),
	// so DurableTokens already folds in everything generated before and
	// after the loss.
	rep.Finish(final, out.DurableTokens)
	return rep, nil
}

// subCluster restricts c to members and returns it with the
// newID→oldID mapping; the full membership keeps c itself.
func subCluster(c hardware.Cluster, members []int) (hardware.Cluster, []int, error) {
	drop := slices.DeleteFunc(Members(c), func(id int) bool { return slices.Contains(members, id) })
	if len(drop) == 0 {
		return c, Members(c), nil
	}
	return removeDevices(c, drop)
}

// removeDevices returns a copy of the cluster without the given devices
// (duplicates tolerated), survivors reindexed to contiguous IDs (node
// placement preserved), plus the newID→oldID mapping. At least one device
// must survive.
func removeDevices(c hardware.Cluster, devs []int) (hardware.Cluster, []int, error) {
	drop := make(map[int]bool, len(devs))
	for _, dev := range devs {
		if dev < 0 || dev >= len(c.Devices) {
			return hardware.Cluster{}, nil, fmt.Errorf("failover: device %d out of [0,%d)", dev, len(c.Devices))
		}
		drop[dev] = true
	}
	if len(drop) == 0 {
		return hardware.Cluster{}, nil, fmt.Errorf("failover: no devices to remove")
	}
	if len(drop) >= len(c.Devices) {
		return hardware.Cluster{}, nil, fmt.Errorf("failover: losing %d of %d devices leaves no survivors", len(drop), len(c.Devices))
	}
	out := hardware.Cluster{
		Name: c.Name + "-degraded", InterNode: c.InterNode, ModelName: c.ModelName,
	}
	var oldID []int
	for _, d := range c.Devices {
		if drop[d.ID] {
			continue
		}
		oldID = append(oldID, d.ID)
		d.ID = len(out.Devices)
		out.Devices = append(out.Devices, d)
	}
	return out, oldID, nil
}

// layerHomes maps each model layer to the physical device serving it
// under a plan. idMap, when non-nil, translates the plan's device
// indices (into a reduced cluster) back to original physical IDs.
func layerHomes(p *assigner.Plan, layers int, idMap []int) []int {
	home := make([]int, layers)
	g := p.Group
	if g <= 1 {
		g = 1
	}
	for j := 0; j < p.NumStages(); j++ {
		dev := p.Order[j]
		if idMap != nil {
			dev = idMap[dev]
		}
		for grp := p.Boundaries[j]; grp < p.Boundaries[j+1]; grp++ {
			for l := grp * g; l < (grp+1)*g && l < layers; l++ {
				home[l] = dev
			}
		}
	}
	return home
}
