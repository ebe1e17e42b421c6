package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"

	"repro/internal/assigner"
	"repro/internal/experiments"
	"repro/internal/failover"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// planFailover is a closed loop with one caller over the heterogeneous
// Table-3 clusters 3–8 at the experiments package's per-cluster solver
// settings and DefaultWork. One operation is one cluster cycle: a cold
// assigner.Optimize, a runtime.Engine.Run of the plan, and a warm
// failover.Replan for every single-device loss against a SolveCache the
// cold solve seeded. online, serve and dist are bypassed.
type planFailover struct{}

// pfClusters are the heterogeneous Table-3 clusters the loop cycles.
var pfClusters = []int{3, 4, 5, 6, 7, 8}

// pfCyclesPerSecond sizes the fixed cycle count from --seconds.
const pfCyclesPerSecond = 4.0

type pfCluster struct {
	id   int
	spec *assigner.Spec
	// infeasible holds the device losses that leave no feasible plan;
	// the warm-up establishes them with cold solves.
	infeasible map[int]bool
}

type pfInstance struct {
	clusters []*pfCluster // in the seed's order
	cycles   int

	// Traced-pass state.
	reg          *obs.Registry
	cycleCluster map[int64]int // cycle (request id) -> index into clusters
	solves       int
	allocMB      []float64
	hits, misses int64
	events       []float64
}

func (planFailover) setUp(cfg config) (instance, error) {
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(pfClusters))
	inst := &pfInstance{cycles: cfg.ops(pfCyclesPerSecond, len(pfClusters))}
	for _, k := range order {
		spec, err := experiments.SpecFor(pfClusters[k], experiments.DefaultWork)
		if err != nil {
			return nil, err
		}
		spec.Parallelism = 1
		inst.clusters = append(inst.clusters, &pfCluster{id: pfClusters[k], spec: spec, infeasible: map[int]bool{}})
	}
	return inst, nil
}

// warmUp solves every cluster once and checks the failover layer's
// identity: each warm replan equals a cold solve on the degraded
// cluster, or both find no feasible plan.
func (p *pfInstance) warmUp() error {
	for _, c := range p.clusters {
		spec := *c.spec
		spec.Cache = assigner.NewSolveCache()
		res, err := assigner.Optimize(&spec, nil)
		if err != nil {
			return fmt.Errorf("cluster %d: %w", c.id, err)
		}
		for j, dev := range res.Plan.Order {
			out, werr := failover.Replan(&spec, res.Plan, nil, lostAt(&spec, j, dev), nil, nil, nil)
			degraded, derr := degradedSpec(c.spec, dev)
			if derr != nil {
				return derr
			}
			cold, cerr := assigner.Optimize(degraded, nil)
			switch {
			case werr != nil && cerr != nil:
				var rfe *failover.ReplanFailedError
				if !errors.As(werr, &rfe) {
					return fmt.Errorf("cluster %d loss of device %d: %w", c.id, dev, werr)
				}
				c.infeasible[dev] = true
			case werr != nil || cerr != nil:
				return fmt.Errorf("cluster %d loss of device %d: warm replan error %v, cold solve error %v", c.id, dev, werr, cerr)
			case !reflect.DeepEqual(out.Plan, cold.Plan):
				return fmt.Errorf("cluster %d loss of device %d: warm replan differs from the cold solve", c.id, dev)
			}
		}
	}
	return nil
}

// degradedSpec is the spec left after losing one device, for the cold
// reference solve.
func degradedSpec(s *assigner.Spec, dev int) (*assigner.Spec, error) {
	d := *s
	d.Cluster.Name = s.Cluster.Name + "-degraded"
	d.Cluster.Devices = nil
	for _, x := range s.Cluster.Devices {
		if x.ID != dev {
			x.ID = len(d.Cluster.Devices)
			d.Cluster.Devices = append(d.Cluster.Devices, x)
		}
	}
	if len(d.Cluster.Devices) != len(s.Cluster.Devices)-1 {
		return nil, fmt.Errorf("device %d not in cluster %s", dev, s.Cluster.Name)
	}
	return &d, nil
}

// lostAt is a permanent loss of stage j's device halfway through decode.
func lostAt(s *assigner.Spec, j, dev int) *rt.DeviceLostError {
	w := s.Work.Generate / 2
	return &rt.DeviceLostError{Stage: j, Device: dev, Watermark: w, DurableTokens: w * s.Work.GlobalBatch, PrefillDone: true}
}

func (p *pfInstance) measure(tr *tracer) (*pass, error) {
	ps := &pass{}
	if tr != nil {
		p.reg = obs.NewRegistry()
		p.cycleCluster = map[int64]int{}
	}
	cold := make([][]float64, len(p.clusters))
	var simTPS []float64
	start := time.Now()
	for i := 0; i < p.cycles; i++ {
		k := i % len(p.clusters)
		c := p.clusters[k]
		ps.attempted++
		if p.cycleCluster != nil {
			p.cycleCluster[int64(i)] = k
		}
		coldMS, tps, err := p.cycle(c, int64(i), tr)
		if err != nil {
			ps.fail("cluster %d cycle %d: %v", c.id, i, err)
			continue
		}
		cold[k] = append(cold[k], coldMS)
		simTPS = append(simTPS, tps)
	}
	ps.wallSec = time.Since(start).Seconds()
	ps.units = float64(p.cycles - ps.failed)
	var p50, p90 []float64
	for _, xs := range cold {
		p50 = append(p50, quantile(xs, 0.5))
		p90 = append(p90, quantile(xs, 0.9))
	}
	ps.latP50, ps.latP90 = geomean(p50), geomean(p90)
	ps.simTokS = mean(simTPS)
	return ps, nil
}

// cycle runs one cluster cycle and returns the cold time-to-plan in ms
// and the plan's simulated throughput.
func (p *pfInstance) cycle(c *pfCluster, req int64, tr *tracer) (float64, float64, error) {
	root := tr.begin("bench.cycle", span{}, req, 0)
	defer root.end()
	spec := *c.spec
	spec.Cache = assigner.NewSolveCache()
	spec.Obs = p.reg
	traced := tr != nil

	var alloc0 float64
	if traced {
		alloc0 = allocatedMB()
	}
	sp := tr.begin("assigner.Optimize", root, req, 0)
	t0 := time.Now()
	res, err := assigner.Optimize(&spec, nil)
	coldMS := ms(time.Since(t0))
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	if traced {
		p.allocMB = append(p.allocMB, allocatedMB()-alloc0)
		p.solves++
	}
	if err := res.Plan.Validate(&spec); err != nil {
		return 0, 0, fmt.Errorf("%w: cold plan: %v", errCheck, err)
	}

	eng, err := rt.NewEngine(&spec, res.Plan, nil)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("runtime.Engine.Run", root, req, 0)
	st, err := eng.Run()
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	if want := spec.Work.GlobalBatch * spec.Work.Generate; st.TokensOut != want {
		return 0, 0, fmt.Errorf("%w: %d tokens out, want %d", errCheck, st.TokensOut, want)
	}
	if traced {
		p.events = append(p.events, float64(st.Events))
	}

	before := spec.Cache.Stats()
	for j, dev := range res.Plan.Order {
		sp = tr.begin("failover.Replan", root, req, 0)
		out, err := failover.Replan(&spec, res.Plan, nil, lostAt(&spec, j, dev), p.reg, nil, nil)
		sp.end()
		if traced {
			p.solves++
		}
		var rfe *failover.ReplanFailedError
		switch {
		case err != nil && c.infeasible[dev] && errors.As(err, &rfe):
		case err != nil:
			return 0, 0, fmt.Errorf("loss of device %d: %w", dev, err)
		case c.infeasible[dev]:
			return 0, 0, fmt.Errorf("%w: loss of device %d replanned, but a cold solve found no plan", errCheck, dev)
		default:
			if err := out.Plan.Validate(out.Degraded); err != nil {
				return 0, 0, fmt.Errorf("%w: degraded plan after losing device %d: %v", errCheck, dev, err)
			}
		}
	}
	after := spec.Cache.Stats()
	p.hits += after.Hits - before.Hits
	p.misses += after.Misses - before.Misses
	return coldMS, st.Throughput, nil
}

func (p *pfInstance) layers(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	// Cluster costs differ by an order of magnitude, so each timing is
	// the geometric mean over clusters of the per-cluster median.
	perCluster := func(name string) float64 {
		groups := make([][]float64, len(p.clusters))
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			req, err := strconv.Atoi(s.Args["req"])
			if err != nil {
				continue
			}
			k := p.cycleCluster[int64(req)]
			groups[k] = append(groups[k], s.Dur*1e3)
		}
		var meds []float64
		for _, g := range groups {
			if len(g) > 0 {
				meds = append(meds, quantile(g, 0.5))
			}
		}
		return geomean(meds)
	}
	out["assigner.optimize_ms_p50"] = perCluster("assigner.Optimize")
	out["failover.replan_ms_p50"] = perCluster("failover.Replan")
	out["runtime.run_ms_p50"] = perCluster("runtime.Engine.Run")
	var combos float64
	for m := assigner.MethodDP; m <= assigner.MethodAdabits; m++ {
		combos += p.reg.Counter("llmpq_solver_combinations_total", obs.L("method", m.String())).Value()
	}
	if p.solves > 0 {
		out["assigner.combinations_per_solve"] = combos / float64(p.solves)
		out["assigner.dp_cells_per_solve"] = p.reg.Counter("llmpq_solver_dp_cells_total").Value() / float64(p.solves)
	}
	out["assigner.alloc_mb_per_solve"] = mean(p.allocMB)
	if p.hits+p.misses > 0 {
		out["assigner.cache_hit_ratio"] = float64(p.hits) / float64(p.hits+p.misses)
	}
	out["runtime.events_per_run"] = mean(p.events)
	return out
}

func (p *pfInstance) close() {}
