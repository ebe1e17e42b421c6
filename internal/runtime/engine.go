// Package runtime executes inference plans. It provides two engines:
//
//   - Engine (this file): a deterministic discrete-event simulation of the
//     paper's distributed pipeline serving runtime — master engine,
//     per-stage workers, asynchronous inter-stage communication, KV-cache
//     reservation, micro-batch scheduling for both generation phases, and
//     OOM detection. All timing comes from the same hardware model the
//     profiler uses, so measured latencies play the role of the paper's
//     testbed measurements.
//
//   - Pipeline (pipeline.go): a real goroutine-per-stage pipeline running
//     the reference transformer, producing actual tokens — the functional
//     counterpart used to validate plan execution end to end.
//
// The engine also hosts the chaos fault model (internal/chaos): a
// schedule of stage crashes (transient or permanent device loss),
// compute stragglers, and slow interconnect hops, injected into the same
// event queue as the workload so fault runs stay byte-for-byte
// reproducible. A permanent loss halts the simulation and surfaces a
// DeviceLostError carrying the completed-token watermark; the
// self-healing replanner in internal/failover consumes it.
package runtime

import (
	"errors"
	"fmt"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/simclock"
)

// OOMError reports a stage whose reserved memory exceeds device capacity —
// the condition behind the missing baseline entries in Table 4.
type OOMError struct {
	Stage  int
	Device string
	NeedGB float64
	HaveGB float64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("runtime: OOM on stage %d (%s): needs %.1fGB, capacity %.1fGB",
		e.Stage, e.Device, e.NeedGB, e.HaveGB)
}

// DeviceLostError reports a permanent device loss (chaos.KindCrash with
// Permanent set): the simulation halted at AtSec with the pipeline
// incomplete. Watermark is the completed-token watermark — every request
// durably holds at least Watermark generated tokens — which is where the
// failover controller resumes the replanned pipeline (Engine.StartRound).
// Work in flight beyond the watermark is lost and re-executed after
// migration, exactly like a task lost to a transient crash.
type DeviceLostError struct {
	Stage  int // pipeline stage that died
	Device int // cluster device id serving that stage
	AtSec  float64
	// Watermark is the durable generated-token count per request (0 when
	// prefill had not completed).
	Watermark int
	// DurableTokens = GlobalBatch × Watermark, the tokens that survive.
	DurableTokens int
	// PrefillDone reports whether every prefill micro-batch had finished.
	PrefillDone bool
}

func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("runtime: permanent device loss on stage %d (device %d) at %.3fs (watermark %d tokens/request)",
		e.Stage, e.Device, e.AtSec, e.Watermark)
}

// StageLostError is how an external control plane tells the engine that
// the worker serving a stage is permanently gone: returned from a
// StageTimer callback, it halts the run exactly like a chaos permanent
// crash — the engine freezes at the current virtual time and surfaces a
// DeviceLostError carrying the completed-token watermark, which the
// failover path consumes. internal/dist produces it when a worker's
// lease expires mid-call.
type StageLostError struct {
	Stage int
}

func (e *StageLostError) Error() string {
	return fmt.Sprintf("runtime: worker serving stage %d is lost", e.Stage)
}

// StageRestoreError is the inverse of StageLostError: an external
// control plane tells the engine that lost capacity has healed and a
// capacity-restoring replan is wanted. Returned from a StageTimer
// callback, it freezes the run at the current virtual time and surfaces
// a *RestoreHaltError carrying the completed-token watermark; the
// failover restore path re-solves on the re-expanded cluster and
// resumes from that watermark. internal/dist produces it when a
// rejoined worker's lease has held for the heal dwell.
type StageRestoreError struct{}

func (e *StageRestoreError) Error() string {
	return "runtime: healed capacity available; restore replan requested"
}

// RestoreHaltError reports a voluntary halt for a capacity-restoring
// replan: the pipeline is incomplete but nothing was lost — the run
// stopped at AtSec so the failover controller can re-expand the cluster
// and resume from Watermark. The fields mirror DeviceLostError; work in
// flight beyond the watermark is re-executed after migration.
type RestoreHaltError struct {
	AtSec float64
	// Watermark is the durable generated-token count per request (0 when
	// prefill had not completed).
	Watermark int
	// DurableTokens = GlobalBatch × Watermark, the tokens that survive.
	DurableTokens int
	// PrefillDone reports whether every prefill micro-batch had finished.
	PrefillDone bool
}

func (e *RestoreHaltError) Error() string {
	return fmt.Sprintf("runtime: restore replan halt at %.3fs (watermark %d tokens/request)",
		e.AtSec, e.Watermark)
}

// Stats summarizes one serving run.
type Stats struct {
	LatencySec  float64 // end-to-end batch latency
	PrefillSec  float64 // time until every request has its first token
	Throughput  float64 // generated tokens per second
	TokensOut   int
	StageBusy   []float64 // per-stage busy seconds
	StageMemGB  []float64 // per-stage reserved memory
	Utilization []float64 // busy / latency
	Events      int
	// DowntimeSec totals the injected transient-crash outages.
	DowntimeSec float64
	// LostTasks counts in-flight tasks killed by crash faults and
	// re-executed after recovery.
	LostTasks int
}

// Engine simulates plan execution on a cluster.
type Engine struct {
	Spec  *assigner.Spec
	Plan  *assigner.Plan
	Timer assigner.LayerTimer
	// Chaos, when non-nil, injects the schedule's faults: concurrent
	// stage crashes (transient or permanent), compute stragglers, and
	// slow-link windows. KV-allocation faults are ignored here (they
	// target online serving). The schedule is validated against the
	// plan's stage count and its own horizon before the run starts.
	Chaos *chaos.Schedule
	// StageTimer, when non-nil, replaces the local per-task stage-time
	// computation (StageTime) — the distributed control plane's seam:
	// internal/dist's coordinator installs a callback that answers from
	// the round's stage times, computed remotely by the worker owning the
	// stage (the task set of a round follows from MicroBatches). It is
	// called once per task, in virtual-time order. The callback must
	// return exactly what StageTime would (it is a pure function, so a
	// faithful remote evaluation reproduces the single-process run
	// bit-for-bit). Returning a *StageLostError halts the run with a
	// watermarked *DeviceLostError; any other error aborts it.
	StageTimer func(stage, batch, round int, prefill bool) (float64, error)
	// StartRound resumes a pipeline from a completed-token watermark:
	// prefill is skipped and decode micro-batches are injected at this
	// round (tokens already held per request). 0 runs normally from
	// prefill. Used by the failover controller to resume on a degraded
	// plan after a permanent device loss.
	StartRound int
	// OnRoundCommit, when non-nil, fires each time the completed-token
	// watermark advances past StartRound: watermark is the decode round
	// every request durably holds (prefill completion commits round 1),
	// durableTokens = GlobalBatch × watermark is the cumulative token
	// count at that watermark, and runTokens is what this engine run has
	// generated so far. Called synchronously from the event loop in
	// virtual-time order — the distributed coordinator journals each
	// commit so a crashed control plane can restore the watermark
	// exactly.
	OnRoundCommit func(watermark, durableTokens, runTokens int)
	// RestoreAtSec, when positive, schedules a voluntary restore halt at
	// that virtual time: if the pipeline is still incomplete the run
	// freezes and returns a *RestoreHaltError, the simulation seam for
	// the failover controller's heal path (a healed device's dwell
	// expiring is a schedule-derived instant, so the halt — and every
	// artifact downstream of it — stays byte-deterministic). A run that
	// finishes first ignores it.
	RestoreAtSec float64
	// Obs, when non-nil, receives engine metrics: per-stage busy/idle/comm
	// histograms, KV reservation gauges, OOM/task counters, and the
	// llmpq_chaos_* fault families (DESIGN.md §8, §10). Nil keeps the hot
	// path allocation-free, so the uninstrumented simulation is
	// bit-for-bit unchanged.
	Obs *obs.Registry
	// Spans, when non-nil, records one simulated-time span per executed
	// task and inter-stage transfer; export with
	// (*obs.SpanRecorder).WriteChromeTrace, or draw the task spans with
	// RenderGantt.
	Spans *obs.SpanRecorder
}

// NewEngine validates inputs and builds an engine.
func NewEngine(spec *assigner.Spec, plan *assigner.Plan, timer assigner.LayerTimer) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(spec); err != nil {
		return nil, err
	}
	if timer == nil {
		timer = assigner.ProfilerTimer{}
	}
	return &Engine{Spec: spec, Plan: plan, Timer: timer}, nil
}

type task struct {
	mb      int // micro-batch index
	batch   int // requests in this micro-batch
	prefill bool
	round   int // decode round (tokens already held per request)
}

type stage struct {
	device    int
	layerBits []int
	queue     []task
	busy      bool
	busyTime  float64
	// epoch increments when the stage fails; completions from an older
	// epoch are discarded and their task re-queued (the work was lost).
	epoch int
	// downCount tracks overlapping crash faults; the stage serves only
	// while it is zero.
	downCount int
	cur       task
	// lastEnd is when the previous task completed (idle-gap accounting).
	lastEnd float64
}

// Run simulates the full offline task and returns measured statistics.
// A permanent device loss in the chaos schedule halts the run and
// returns a *DeviceLostError (unless the pipeline had already finished).
func (e *Engine) Run() (Stats, error) {
	s := e.Spec
	p := e.Plan
	n := p.NumStages()
	stages := make([]*stage, n)
	stageBits := p.StageLayerBits(s.Cfg.Layers)
	maxSeq := s.Work.Prompt + s.Work.Generate

	sched := e.Chaos
	if err := sched.Validate(n); err != nil {
		return Stats{}, err
	}
	if e.StartRound < 0 || (e.StartRound > 0 && e.StartRound >= s.Work.Generate) {
		return Stats{}, fmt.Errorf("runtime: start round %d outside [0,%d)", e.StartRound, s.Work.Generate)
	}
	if e.RestoreAtSec < 0 {
		return Stats{}, fmt.Errorf("runtime: negative restore time %g", e.RestoreAtSec)
	}

	var stats Stats
	stats.StageMemGB = make([]float64, n)
	eo := newEngineObs(e.Obs, n)
	// Startup: load shards, reserve KV, detect OOM.
	for j := 0; j < n; j++ {
		d := p.Order[j]
		dev := s.Cluster.Devices[d]
		stages[j] = &stage{device: d, layerBits: stageBits[j]}
		in := costmodel.MemoryInput{
			Cfg: s.Cfg, LayerBits: stageBits[j], GlobalBatch: s.Work.GlobalBatch,
			MaxSeq: maxSeq, MicroBatch: p.PrefillMB, PromptLen: s.Work.Prompt,
			First: j == 0, Last: j == n-1, KVBits: s.KVBits,
		}
		br, err := costmodel.StageMemory(in)
		if err != nil {
			return Stats{}, err
		}
		stats.StageMemGB[j] = br.Total / 1e9
		eo.reserve(j, br.Total/1e9)
		if br.Total > dev.GPU.MemoryBytes() {
			eo.oomHit()
			return Stats{}, &OOMError{Stage: j, Device: dev.GPU.Name, NeedGB: br.Total / 1e9, HaveGB: dev.GPU.MemoryGB}
		}
	}

	clk := simclock.New()
	B := s.Work.GlobalBatch
	pre, dec := MicroBatches(B, p.PrefillMB), MicroBatches(B, p.DecodeMB)
	kp, kd := len(pre), len(dec)

	prefillDone := 0
	decodeDone := 0
	tokens := 0
	var prefillEnd float64
	var workDoneAt float64
	// rounds[mb] is the durable token count of decode micro-batch mb —
	// the completed-token watermark is their minimum.
	rounds := make([]int, kd)
	resumed := e.StartRound > 0
	if resumed {
		for m := range rounds {
			rounds[m] = e.StartRound
		}
	}
	// committed is the last watermark reported through OnRoundCommit; it
	// starts at the resume point so a resumed run reports only the
	// progress it makes itself.
	committed := e.StartRound
	watermark := func() int {
		w := rounds[0]
		for _, r := range rounds[1:] {
			if r < w {
				w = r
			}
		}
		return w
	}
	commitRound := func() {
		if e.OnRoundCommit == nil {
			return
		}
		if w := watermark(); w > committed {
			committed = w
			e.OnRoundCommit(w, B*w, tokens)
		}
	}
	// halted is set by a permanent device loss: every pending callback
	// becomes a no-op so the event queue drains without scheduling more
	// work, freezing the simulation at the loss instant.
	halted := false
	var lost *DeviceLostError
	var restore *RestoreHaltError
	var simErr error
	fail := func(err error) {
		if simErr == nil {
			simErr = err
		}
	}
	workComplete := func() bool {
		if s.Work.Generate > 1 {
			return decodeDone == kd
		}
		return prefillDone == kp
	}

	var dispatch func(j int)
	arrive := func(j int, t task) {
		if halted {
			return
		}
		stages[j].queue = append(stages[j].queue, t)
		dispatch(j)
	}

	// Completion at the last stage.
	finish := func(t task) {
		if t.prefill {
			prefillDone++
			tokens += t.batch // first token comes out of prefill
			if prefillDone == kp {
				prefillEnd = clk.Now()
				for m := range rounds {
					rounds[m] = 1
				}
				commitRound()
				if workComplete() {
					workDoneAt = clk.Now()
				}
				// Master regroups into decode micro-batches (hybrid
				// micro-batch sizing, §3). One return hop to the master.
				if s.Work.Generate > 1 {
					ret := e.commTime(p.Order[n-1], p.Order[0], p.DecodeMB, 1) * sched.CommMult(n-1, clk.Now())
					for m := 0; m < kd; m++ {
						mb := m
						if err := clk.After(ret, func() {
							arrive(0, task{mb: mb, batch: dec[mb], round: 1})
						}); err != nil {
							fail(err)
						}
					}
				}
			}
			return
		}
		tokens += t.batch
		rounds[t.mb] = t.round + 1
		commitRound()
		if t.round+1 < s.Work.Generate {
			ret := e.commTime(p.Order[n-1], p.Order[0], p.DecodeMB, 1) * sched.CommMult(n-1, clk.Now())
			next := task{mb: t.mb, batch: t.batch, round: t.round + 1}
			if err := clk.After(ret, func() { arrive(0, next) }); err != nil {
				fail(err)
			}
		} else {
			decodeDone++
			if workComplete() {
				workDoneAt = clk.Now()
			}
		}
	}

	dispatch = func(j int) {
		st := stages[j]
		if halted || st.busy || st.downCount > 0 || len(st.queue) == 0 {
			return
		}
		t := st.queue[0]
		st.queue = st.queue[1:]
		st.busy = true
		st.cur = t
		var dur float64
		var err error
		if e.StageTimer != nil {
			dur, err = e.StageTimer(j, t.batch, t.round, t.prefill)
		} else {
			dur, err = e.stageTime(j, t)
		}
		if err != nil {
			var sl *StageLostError
			if errors.As(err, &sl) {
				// The control plane lost this stage's worker: freeze the
				// simulation here, exactly like a chaos permanent crash.
				// The dispatched task had not started — it is part of the
				// work the watermark resume re-executes.
				halted = true
				lost = &DeviceLostError{Stage: j, Device: p.Order[j], AtSec: clk.Now()}
				eo.deviceLost(j)
				return
			}
			var sr *StageRestoreError
			if errors.As(err, &sr) {
				// Healed capacity is ready: freeze voluntarily so the
				// failover restore path can re-expand the cluster. The
				// dispatched task is re-executed after the resume.
				halted = true
				restore = &RestoreHaltError{AtSec: clk.Now()}
				return
			}
			fail(err)
			return
		}
		dur *= sched.ComputeMult(j, clk.Now())
		st.busyTime += dur
		epoch := st.epoch
		startAt := clk.Now()
		eo.idleGap(j, startAt-st.lastEnd)
		if err := clk.After(dur, func() {
			if halted || st.epoch != epoch {
				// The stage failed (or the run halted) while this task ran:
				// the work is lost; on a transient failure it was already
				// re-queued by the failure handler.
				return
			}
			end := clk.Now()
			eo.taskDone(j, t.prefill, end-startAt)
			recordTaskSpan(e.Spans, j, t, startAt, end)
			st.lastEnd = end
			st.busy = false
			if j < n-1 {
				var comm float64
				if t.prefill {
					comm = e.commTime(p.Order[j], p.Order[j+1], t.batch, s.Work.Prompt)
				} else {
					comm = e.commTime(p.Order[j], p.Order[j+1], t.batch, 1)
				}
				comm *= sched.CommMult(j, end)
				eo.commHop(j, comm)
				recordCommSpan(e.Spans, j, t, end, comm)
				tt := t
				if err := clk.After(comm, func() { arrive(j+1, tt) }); err != nil {
					fail(err)
				}
			} else {
				finish(t)
			}
			dispatch(j)
		}); err != nil {
			fail(err)
		}
	}

	// Fault injection: every crash in the schedule lands in the same
	// event queue as the workload (§5 recovery path; DESIGN.md §10).
	// Straggler and slow-link faults act through the multipliers applied
	// at dispatch/transfer time; KV-allocation faults are online-serving
	// only and ignored here.
	if sched != nil {
		for _, f := range sched.Faults {
			if f.Kind != chaos.KindCrash {
				eo.faultInjected(f.Kind)
				continue
			}
			f := f
			st := stages[f.Stage]
			if err := clk.At(f.AtSec, func() {
				if halted {
					return
				}
				eo.faultInjected(f.Kind)
				st.downCount++
				st.epoch++
				if st.busy {
					// The in-flight task is lost; put it back at the head.
					st.queue = append([]task{st.cur}, st.queue...)
					st.busy = false
					stats.LostTasks++
					eo.taskLost(f.Stage)
				}
				if f.Permanent {
					halted = true
					lost = &DeviceLostError{
						Stage: f.Stage, Device: p.Order[f.Stage], AtSec: clk.Now(),
					}
					eo.deviceLost(f.Stage)
				}
			}); err != nil {
				return Stats{}, err
			}
			if f.Permanent {
				continue
			}
			if err := clk.At(f.AtSec+f.RecoverySec, func() {
				if halted {
					return
				}
				st.downCount--
				if st.downCount == 0 {
					dispatch(f.Stage)
				}
			}); err != nil {
				return Stats{}, err
			}
			stats.DowntimeSec += f.RecoverySec
			eo.downtime(f.Stage, f.RecoverySec)
		}
	}

	// A scheduled restore halt shares the event queue with the workload
	// and the chaos faults; it only acts while the pipeline is live and
	// incomplete, so a run that drains first is untouched.
	if e.RestoreAtSec > 0 {
		if err := clk.At(e.RestoreAtSec, func() {
			if halted || workComplete() {
				return
			}
			halted = true
			restore = &RestoreHaltError{AtSec: clk.Now()}
		}); err != nil {
			return Stats{}, err
		}
	}

	// Kick off. A resumed run (StartRound > 0) skips prefill: the master
	// re-injects decode micro-batches at the watermark round, modelling
	// restart from migrated KV state.
	if resumed {
		for m := 0; m < kd; m++ {
			mb := m
			if err := clk.At(0, func() {
				arrive(0, task{mb: mb, batch: dec[mb], round: e.StartRound})
			}); err != nil {
				return Stats{}, err
			}
		}
		prefillDone = kp
	} else {
		// Master embeds and injects prefill micro-batches.
		for m := 0; m < kp; m++ {
			mb := m
			if err := clk.At(0, func() { arrive(0, task{mb: mb, batch: pre[mb], prefill: true}) }); err != nil {
				return Stats{}, err
			}
		}
	}

	if err := clk.Run(20_000_000); err != nil {
		return Stats{}, err
	}
	if simErr != nil {
		return Stats{}, simErr
	}
	// haltMark is what a halt with the pipeline incomplete reports, so
	// the failover controller can resume from it: whether prefill
	// completed, the watermark (0 before prefill completes) and the
	// tokens durable at it.
	haltMark := func() (done bool, w, durable int) {
		if done = prefillDone == kp; done {
			w = watermark()
		}
		return done, w, B * w
	}
	if lost != nil && !workComplete() {
		// Permanent device loss: resume on a degraded plan.
		lost.PrefillDone, lost.Watermark, lost.DurableTokens = haltMark()
		return Stats{}, lost
	}
	if restore != nil && !workComplete() {
		// Voluntary restore halt: resume on the re-expanded cluster.
		restore.PrefillDone, restore.Watermark, restore.DurableTokens = haltMark()
		return Stats{}, restore
	}
	if s.Work.Generate > 1 && decodeDone != kd {
		return Stats{}, fmt.Errorf("runtime: simulation ended with %d/%d decode micro-batches complete", decodeDone, kd)
	}

	// A fault scheduled past the pipeline's completion leaves trailing
	// events on the clock; latency is when the work finished, not when
	// the last moot fault event fired.
	stats.LatencySec = workDoneAt
	stats.PrefillSec = prefillEnd
	stats.TokensOut = tokens
	stats.Throughput = float64(stats.TokensOut) / stats.LatencySec
	stats.Events = clk.Fired()
	stats.StageBusy = make([]float64, n)
	stats.Utilization = make([]float64, n)
	for j, st := range stages {
		stats.StageBusy[j] = st.busyTime
		stats.Utilization[j] = st.busyTime / stats.LatencySec
	}
	eo.finish(stats.LatencySec, stats.Events)
	return stats, nil
}

// stageTime computes the execution time of one task on stage j.
func (e *Engine) stageTime(j int, t task) (float64, error) {
	return StageTime(e.Spec, e.Plan, e.Timer, j, t.batch, t.round, t.prefill)
}

// StageTime computes the simulated execution time of one pipeline task on
// stage `stage` under a plan: the sum of the stage's layers at their
// assigned precisions, plus master pre/post-processing on the first
// stage. round is the decode round (tokens already held per request;
// ignored when prefill is set). A nil timer uses the profiler-backed
// default. The result is a pure function of its arguments — the property
// the distributed control plane relies on: a worker given the same spec
// and plan computes bit-identical times remotely (DESIGN.md §11), so a
// multi-process run reproduces the single-process engine exactly.
func StageTime(s *assigner.Spec, p *assigner.Plan, timer assigner.LayerTimer, stage, batch, round int, prefill bool) (float64, error) {
	if timer == nil {
		timer = assigner.ProfilerTimer{}
	}
	if stage < 0 || stage >= p.NumStages() {
		return 0, fmt.Errorf("runtime: stage %d out of [0,%d)", stage, p.NumStages())
	}
	d := p.Order[stage]
	gpu := s.Cluster.Devices[d].GPU
	var total float64
	lo, hi := p.StageLayers(stage, s.Cfg.Layers)
	for i := lo; i < hi; i++ {
		b := p.LayerBit(i)
		var w profiler.Workload
		if prefill {
			w = profiler.Workload{Batch: batch, Prompt: s.Work.Prompt, Prefill: true, Bits: b, KV: s.KVBits}
		} else {
			ctx := s.Work.Prompt + round
			w = profiler.Workload{Batch: batch, Prompt: s.Work.Prompt, Context: ctx, Bits: b, KV: s.KVBits}
		}
		lt, err := timer.Layer(gpu, s.Cfg, w)
		if err != nil {
			return 0, err
		}
		total += lt
	}
	if stage == 0 {
		tokens := 1
		if prefill {
			tokens = s.Work.Prompt
		}
		et, err := profiler.EmbedTime(gpu, s.Cfg, batch, tokens)
		if err != nil {
			return 0, err
		}
		total += et
	}
	return total, nil
}

// commTime is the transfer time of a micro-batch's activations between two
// devices.
func (e *Engine) commTime(from, to, batch, tokens int) float64 {
	s := e.Spec
	if from == to {
		return 0
	}
	link := s.Cluster.LinkBetween(s.Cluster.Devices[from], s.Cluster.Devices[to])
	bytes := float64(batch) * float64(tokens) * float64(s.Cfg.Hidden) * 2
	return link.TransferTime(bytes)
}

// MicroBatches sizes the micro-batches one pass splits a global batch
// into, in injection order: each holds size requests but the last, which
// holds the remainder. The engine injects the prefill pass and every
// decode round with these sizes; a control plane that evaluates a round's
// stage times ahead of the engine builds the same task set from them.
func MicroBatches(global, size int) []int {
	out := make([]int, (global+size-1)/size)
	for m := range out {
		out[m] = min(size, global-m*size)
	}
	return out
}
