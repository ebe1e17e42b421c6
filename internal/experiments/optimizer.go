package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/assigner"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quality"
	"repro/internal/quant"
)

// Table6Row is one indicator-comparison result.
type Table6Row struct {
	Method   string
	PPL      float64
	Overhead time.Duration
}

// Table6 reproduces the variance-indicator effectiveness study: plan the
// same memory-constrained serving problem with Random, Hessian-probe, and
// Variance sensitivities; apply each plan's bits to the REAL reference
// model and measure perplexity; record indicator-generation overhead.
func Table6() (*Table, []Table6Row, error) {
	cfg := nn.TinyOPT
	ref, err := quality.NewReference(cfg, OmegaSeed, 6, 48)
	if err != nil {
		return nil, nil, err
	}
	// Calibration pass for the variance indicator's activation statistics,
	// and calibration sequences for the Hessian probe.
	var calib [][]int
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(int64(i) + OmegaSeed))
		seq, err := ref.Model.Generate([]int{int(OmegaSeed) % cfg.Vocab, i + 1}, 32, 0.7, rng)
		if err != nil {
			return nil, nil, err
		}
		calib = append(calib, seq)
	}
	if err := ref.Model.CalibrateStats(calib[0]); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	varOmega, err := indicator.Variance(ref.Model, Bits, quant.Deterministic)
	if err != nil {
		return nil, nil, err
	}
	varTime := time.Since(start)
	start = time.Now()
	hessOmega, err := indicator.Hessian(ref.Model, Bits, calib)
	if err != nil {
		return nil, nil, err
	}
	hessTime := time.Since(start)
	randOmega := indicator.Random(cfg.Layers, Bits, OmegaSeed)

	cluster := refClusterMB(2.2, 2.2)
	planCfg := refPlanConfig(cfg)
	work := assigner.Workload{GlobalBatch: 4, Prompt: 32, Generate: 16}

	var rows []Table6Row
	for _, c := range []struct {
		name     string
		omega    indicator.Omega
		overhead time.Duration
	}{
		{"Random", randOmega, 0},
		{"Hessian", hessOmega, hessTime},
		{"LLM-PQ (variance)", varOmega, varTime},
	} {
		norm, err := c.omega.Normalize()
		if err != nil {
			return nil, nil, err
		}
		s := &assigner.Spec{
			Cfg: planCfg, Cluster: cluster, Work: work,
			Bits: Bits, Omega: norm, Theta: 0.5, Method: assigner.MethodDP,
		}
		res, err := assigner.Optimize(s, nil)
		if err != nil {
			return nil, nil, err
		}
		q, err := ref.Measure(res.Plan.LayerBits(cfg.Layers))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table6Row{Method: c.name, PPL: q.PPL, Overhead: c.overhead})
	}
	t := &Table{
		ID: "table6", Title: "Effectiveness of the variance indicator (reference model, memory-tight cluster)",
		Header: []string{"Method", "PPL", "Overhead(s)", "Speedup vs Hessian"},
	}
	for _, r := range rows {
		sp := "-"
		if r.Overhead > 0 && r.Method != "Hessian" {
			sp = f(float64(rows[1].Overhead)/float64(r.Overhead), 1) + "x"
		}
		t.Rows = append(t.Rows, []string{r.Method, f(r.PPL, 3), f(r.Overhead.Seconds(), 4), sp})
	}
	t.Notes = append(t.Notes, "paper: variance matches Hessian PPL at 58-73x lower overhead; Random trails both")
	return t, rows, nil
}

// Table8Row is one optimizer-strategy measurement.
type Table8Row struct {
	Model      string
	Cluster    int
	Strategy   string
	Throughput float64
	Overhead   time.Duration
}

// Table8 reproduces the optimizer-expediting study: group=2, group=1 and
// the Algorithm 2 heuristic on clusters 3, 4, 6, 10 (the paper's 60 s ILP
// budget maps to our exact structured solver, which needs no budget).
func Table8() (*Table, []Table8Row, error) {
	var rows []Table8Row
	for _, cid := range []int{3, 4, 6, 10} {
		for _, strat := range []struct {
			name   string
			group  int
			method assigner.Method
		}{
			{"group=2", 2, assigner.MethodDP},
			{"group=1", 1, assigner.MethodDP},
			{"heuristic", 1, assigner.MethodHeuristic},
		} {
			s, err := SpecFor(cid, DefaultWork)
			if err != nil {
				return nil, nil, err
			}
			s.Group = strat.group
			s.Method = strat.method
			norm, err := indicator.Synthetic(s.Cfg, Bits, OmegaSeed).Normalize()
			if err != nil {
				return nil, nil, err
			}
			s.Omega = assigner.GroupOmega(norm, strat.group)
			res, err := assigner.Optimize(s, nil)
			if err != nil {
				return nil, nil, err
			}
			out, err := execute(s, res.Plan, strat.name)
			if err != nil {
				return nil, nil, err
			}
			if out.OOM {
				return nil, nil, fmt.Errorf("experiments: unexpected OOM for %s on cluster %d", strat.name, cid)
			}
			rows = append(rows, Table8Row{
				Model: s.Cfg.Name, Cluster: cid, Strategy: strat.name,
				Throughput: out.Throughput, Overhead: res.Solve,
			})
		}
	}
	t := &Table{
		ID: "table8", Title: "Optimizer strategies: grouping and heuristic (throughput vs solve time)",
		Header: []string{"Model", "Cluster", "Strategy", "Tok/s", "Solve(s)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Model, fmt.Sprint(r.Cluster), r.Strategy, f(r.Throughput, 2), f(r.Overhead.Seconds(), 3)})
	}
	t.Notes = append(t.Notes, "group=1 explores the full space at higher solve cost; the heuristic is cheapest (Table 8 trade-off)")
	return t, rows, nil
}

// Fig8Row is one θ-sensitivity point.
type Fig8Row struct {
	Cluster    int
	Theta      float64
	Throughput float64
	PPL        float64
}

// Fig8 reproduces the θ sensitivity sweep on clusters 9 (OPT-30b) and 5
// (OPT-66b): larger θ weights quality over speed.
func Fig8() (*Table, []Fig8Row, error) {
	var rows []Fig8Row
	for _, cid := range []int{9, 5} {
		for _, theta := range []float64{0.01, 1, 100, 10000} {
			s, err := SpecFor(cid, DefaultWork)
			if err != nil {
				return nil, nil, err
			}
			s.Theta = theta
			res, err := assigner.Optimize(s, nil)
			if err != nil {
				return nil, nil, err
			}
			out, err := execute(s, res.Plan, "LLM-PQ")
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig8Row{Cluster: cid, Theta: theta, Throughput: out.Throughput, PPL: out.PPL})
		}
	}
	t := &Table{
		ID: "fig8", Title: "Sensitivity to the quality scalar θ",
		Header: []string{"Cluster", "Theta", "Tok/s", "PPL"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.Cluster), f(r.Theta, 2), f(r.Throughput, 2), f(r.PPL, 3)})
	}
	t.Notes = append(t.Notes, "larger θ → same or better PPL at same or lower throughput (Fig 8 trend)")
	return t, rows, nil
}

// Fig9Row compares LLM-PQ against pure adaptive quantization.
type Fig9Row struct {
	Cluster    int
	Scheme     string
	Throughput float64
}

// Fig9 reproduces the adabits comparison: clusters 3, 5, 6, 9 at s=512 and
// cluster 4 at s=128.
func Fig9() (*Table, []Fig9Row, error) {
	var rows []Fig9Row
	run := func(cid int, work assigner.Workload) error {
		for _, m := range []struct {
			name   string
			method assigner.Method
		}{{"adabits", assigner.MethodAdabits}, {"LLM-PQ", assigner.MethodDP}} {
			s, err := SpecFor(cid, work)
			if err != nil {
				return err
			}
			s.Method = m.method
			res, err := assigner.Optimize(s, nil)
			if err != nil {
				return err
			}
			out, err := execute(s, res.Plan, m.name)
			if err != nil {
				return err
			}
			rows = append(rows, Fig9Row{Cluster: cid, Scheme: m.name, Throughput: out.Throughput})
		}
		return nil
	}
	for _, cid := range []int{3, 5, 6, 9} {
		if err := run(cid, DefaultWork); err != nil {
			return nil, nil, err
		}
	}
	if err := run(4, ShortWork); err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID: "fig9", Title: "LLM-PQ vs pure adaptive quantization (adabits)",
		Header: []string{"Cluster", "Scheme", "Tok/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.Cluster), r.Scheme, f(r.Throughput, 2)})
	}
	t.Notes = append(t.Notes, "joint partition+quantization+micro-batch beats quantization-only in every case (Fig 9)")
	return t, rows, nil
}

// Table9 renders the per-cluster solver setup.
func Table9() *Table {
	t := &Table{
		ID: "table9", Title: "Solver setups per cluster",
		Header: []string{"Cluster", "Group", "Method", "Theta"},
	}
	for id := 1; id <= 11; id++ {
		s := SolverSetups[id]
		t.Rows = append(t.Rows, []string{fmt.Sprint(id), fmt.Sprint(s.Group), s.Method.String(), f(s.Theta, 0)})
	}
	return t
}

// Table10Row records plan-solving overhead.
type Table10Row struct {
	Cluster int
	Solve   time.Duration
}

// Table10 measures plan-solving overhead on every cluster.
func Table10() (*Table, []Table10Row, error) {
	var rows []Table10Row
	var total time.Duration
	var slowest time.Duration
	for id := 1; id <= 11; id++ {
		s, err := SpecFor(id, DefaultWork)
		if err != nil {
			return nil, nil, err
		}
		res, err := assigner.Optimize(s, nil)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table10Row{Cluster: id, Solve: res.Solve})
		total += res.Solve
		if res.Solve > slowest {
			slowest = res.Solve
		}
	}
	t := &Table{
		ID: "table10", Title: "Plan-solving overhead per cluster",
		Header: []string{"Cluster", "Solve(s)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.Cluster), f(r.Solve.Seconds(), 3)})
	}
	t.Rows = append(t.Rows, []string{"AVG", f(total.Seconds()/float64(len(rows)), 3)})
	t.Rows = append(t.Rows, []string{"SLOWEST", f(slowest.Seconds(), 3)})
	return t, rows, nil
}

// refClusterMB builds a two-device reference-scale cluster with the given
// memory budgets in MEGABYTES (reference models are ~4MB).
func refClusterMB(memA, memB float64) hardware.Cluster {
	mk := func(name string, memMB, tflops, bw float64) hardware.GPU {
		return hardware.GPU{
			Name: name, MemoryGB: memMB / 1000, FP16TFLOPS: tflops, BandwidthGBs: bw,
			ComputeEff:       map[int]float64{3: 0.45, 4: 0.5, 8: 0.8, 16: 1.0},
			MemEff:           map[int]float64{3: 0.7, 4: 0.78, 8: 0.91, 16: 1.0},
			LaunchOverheadUS: 10,
		}
	}
	return hardware.Cluster{
		Name: "ref", InterNode: hardware.Eth800Gbps,
		Devices: []hardware.Device{
			{ID: 0, GPU: mk("ref-slow", memB, 10, 300), Node: 0},
			{ID: 1, GPU: mk("ref-fast", memA, 40, 600), Node: 1},
		},
	}
}

// refPlanConfig mirrors an nn.Config as planning metadata.
func refPlanConfig(c nn.Config) model.Config {
	return model.Config{
		Name: "reference", Family: model.OPT, Hidden: c.Hidden, FFN: c.FFN,
		Layers: c.Layers, Heads: c.Heads, VocabSize: c.Vocab, MaxPosEmb: c.MaxSeq, TiedEmbed: true,
	}
}
