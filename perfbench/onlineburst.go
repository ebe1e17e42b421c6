package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/workload"
)

// onlineBurst is an open loop in simulated time: a seeded, step-indexed
// schedule of bursts and quiet gaps is submitted into online.NewEngine
// with Downshift, Upshift and ShedDepth on, and replayed through a fresh
// engine per operation. Bursts build deep batches and KV pressure that
// walk the 16→8 precision ladder down; each quiet gap keeps one small
// request running so the calm dwell walks it back up.
type onlineBurst struct{}

const (
	obReplaysPerSecond = 125
	obBursts           = 96
	// Burst sizes are obBurstMin..obBurstMin+obBurstSizes-1, equally
	// often.
	obBurstMin   = 20
	obBurstSizes = 12
	// A burst arrives over obBurstSteps steps; the quiet gap after it
	// lasts obGapSteps, with one small request every obTrickleEvery
	// steps. The trickle is sparser than the engine's 50-step calm dwell,
	// so the dwell can complete between two arrivals.
	obBurstSteps   = 4
	obGapSteps     = 420
	obTrickleEvery = 60
	obMaxPrompt    = 700
	// obPromptSeed fixes the multiset of burst prompt lengths; the
	// workload seed orders it.
	obPromptSeed = 42
	// obSLOSec is the simulated latency limit of sim_slo_ratio.
	obSLOSec = 6.0
)

// obConfig is the engine every replay starts from.
var obConfig = online.Config{
	GPU: hardware.V100, Model: model.OPT13B, Bits: 16,
	MaxNew: 128, MaxBatch: 32, ShedDepth: 16,
	Downshift: true, Upshift: true,
}

type obArrival struct{ prompt, maxNew int }

// obReplay is what one replay produced in simulated time.
type obReplay struct {
	stats      online.Stats
	submitted  int
	steps      int
	latencies  []float64 // completed requests, simulated seconds
	queueWaits []float64 // admitted requests, simulated seconds
}

type obInstance struct {
	cfg      config
	schedule [][]obArrival // step index -> arrivals
	replays  int

	// Traced-pass state.
	reg       *obs.Registry
	reference *obReplay
}

func (onlineBurst) setUp(cfg config) (instance, error) {
	// Every seed submits the same multisets of burst sizes, prompt
	// lengths and output lengths, each in its own order: the schedules
	// differ while the simulated results stay comparable across seeds.
	rng := rand.New(rand.NewSource(cfg.seed))
	sizes := make([]int, obBursts)
	total := 0
	for i := range sizes {
		sizes[i] = obBurstMin + i%obBurstSizes
		total += sizes[i]
	}
	prompts := workload.ShareGPTLengths(total, obMaxPrompt, obPromptSeed)
	outs := make([]int, total)
	for i := range outs {
		outs[i] = 64 + i%65
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	rng.Shuffle(total, func(i, j int) { prompts[i], prompts[j] = prompts[j], prompts[i] })
	rng.Shuffle(total, func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })

	var sched [][]obArrival
	at := func(step int, a obArrival) {
		for len(sched) <= step {
			sched = append(sched, nil)
		}
		sched[step] = append(sched[step], a)
	}
	step, next := 0, 0
	for _, k := range sizes {
		for i := 0; i < k; i++ {
			at(step+i%obBurstSteps, obArrival{prompts[next], outs[next]})
			next++
		}
		step += obBurstSteps
		for g := 0; g < obGapSteps; g += obTrickleEvery {
			at(step+g, obArrival{32, 96})
		}
		step += obGapSteps
	}
	c := obConfig
	c.Seed = cfg.seed
	if _, err := online.NewEngine(c); err != nil {
		return nil, err
	}
	return &obInstance{cfg: cfg, schedule: sched, replays: cfg.ops(obReplaysPerSecond, 1)}, nil
}

// replay submits the schedule into a fresh engine and steps it until
// the schedule is exhausted and the engine idles.
func (o *obInstance) replay(reg *obs.Registry, tr *tracer, req int64) (*obReplay, error) {
	root := tr.begin("bench.replay", span{}, req, 0)
	defer root.end()
	out := &obReplay{}
	c := obConfig
	c.Seed = o.cfg.seed
	c.Obs = reg
	c.Hooks.OnAdmit = func(r *online.Request) { out.queueWaits = append(out.queueWaits, r.StartSec()-r.ArriveSec()) }
	c.Hooks.OnFinish = func(r *online.Request) { out.latencies = append(out.latencies, r.LatencySec()) }
	e, err := online.NewEngine(c)
	if err != nil {
		return nil, err
	}
	const maxLoops = 1_000_000
	for i := 0; i < len(o.schedule) || e.Busy(); i++ {
		if i >= maxLoops {
			return nil, fmt.Errorf("engine still busy after %d steps", maxLoops)
		}
		if i < len(o.schedule) {
			for _, a := range o.schedule[i] {
				out.submitted++
				sp := tr.begin("online.Engine.Submit", root, req, 0)
				_, err := e.Submit(a.prompt, a.maxNew)
				sp.end()
				if err != nil && !errors.Is(err, online.ErrShed) {
					return nil, err
				}
			}
		}
		sp := tr.begin("online.Engine.StepOnce", root, req, 0)
		ran, err := e.StepOnce()
		sp.end()
		if err != nil {
			return nil, err
		}
		if ran {
			out.steps++
		}
	}
	out.stats = e.Stats()
	return out, nil
}

// check verifies a replay: completed plus shed equals submitted, the
// precision ladder went down and back up, and the replay repeats the
// reference exactly (the simulation is deterministic).
func (o *obInstance) check(r *obReplay) error {
	st := r.stats
	if st.Completed+st.Shed != r.submitted {
		return fmt.Errorf("%w: %d completed + %d shed != %d submitted", errCheck, st.Completed, st.Shed, r.submitted)
	}
	if st.Downshifts < 1 || st.Upshifts < 1 {
		return fmt.Errorf("%w: %d downshifts, %d upshifts; want at least one of each", errCheck, st.Downshifts, st.Upshifts)
	}
	if ref := o.reference; ref != nil && !(r.stats == ref.stats && r.submitted == ref.submitted && r.steps == ref.steps &&
		slices.Equal(r.latencies, ref.latencies) && slices.Equal(r.queueWaits, ref.queueWaits)) {
		return fmt.Errorf("%w: replay diverged from the first replay", errCheck)
	}
	return nil
}

func (o *obInstance) warmUp() error {
	for i := 0; i < 20; i++ {
		r, err := o.replay(nil, nil, 0)
		if err != nil {
			return err
		}
		if err := o.check(r); err != nil {
			return err
		}
		if o.reference == nil {
			o.reference = r
		}
	}
	return nil
}

// obDetailedReplays is how many replays of a traced pass record a span
// per Submit and StepOnce call; the others record only the replay span,
// which keeps the trace to about a hundred thousand spans.
const obDetailedReplays = 2

func (o *obInstance) measure(tr *tracer) (*pass, error) {
	ps := &pass{}
	every := o.replays
	if tr != nil {
		o.reg = obs.NewRegistry()
		every = (o.replays + obDetailedReplays - 1) / obDetailedReplays
	}
	lat := make([]float64, 0, o.replays)
	start := time.Now()
	for i := 0; i < o.replays; i++ {
		ps.attempted++
		inner := tr
		if i%every != 0 {
			inner = nil
		}
		var root span
		if inner == nil {
			root = tr.begin("bench.replay", span{}, int64(i), 0)
		}
		t0 := time.Now()
		r, err := o.replay(o.reg, inner, int64(i))
		lat = append(lat, ms(time.Since(t0)))
		root.end()
		if err == nil {
			err = o.check(r)
		}
		if err != nil {
			ps.fail("replay %d: %v", i, err)
			continue
		}
		ps.units += float64(r.stats.Completed)
	}
	ps.wallSec = time.Since(start).Seconds()
	ps.latP50, ps.latP90 = quantile(lat, 0.5), quantile(lat, 0.9)
	ps.simTokS = o.reference.stats.Throughput
	return ps, nil
}

func (o *obInstance) layers(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	r := o.reference
	us := func(name string, q float64) float64 { return quantile(spanDurations(spans, name), q) * 1e3 }
	out["online.step_us_p50"] = us("online.Engine.StepOnce", 0.5)
	out["online.step_us_p90"] = us("online.Engine.StepOnce", 0.9)
	out["online.submit_us_p50"] = us("online.Engine.Submit", 0.5)
	out["online.steps_per_replay"] = float64(r.steps)
	out["online.batch_mean"] = r.stats.MeanBatch
	bits := obs.L("bits", fmt.Sprint(obConfig.Bits))
	out["online.kv_occupancy_mean"] = o.reg.Histogram("llmpq_online_kv_occupancy", obs.FractionBuckets(), bits).Mean()
	out["online.queue_wait_s_p95"] = quantile(r.queueWaits, 0.95)
	out["online.sim_latency_s_p95"] = quantile(r.latencies, 0.95)
	met := 0
	for _, l := range r.latencies {
		if l <= obSLOSec {
			met++
		}
	}
	out["online.sim_slo_ratio"] = float64(met) / float64(r.submitted)
	out["online.downshifts"] = float64(r.stats.Downshifts)
	out["online.upshifts"] = float64(r.stats.Upshifts)
	out["online.shed"] = float64(r.stats.Shed)
	return out
}

func (o *obInstance) close() {}
