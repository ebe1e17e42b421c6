package assigner

import (
	"fmt"

	"repro/internal/indicator"
)

// Evaluation is the canonical scoring of a plan. Every solver, test, and
// experiment scores plans through this one function so numbers are
// comparable across methods and against the runtime.
type Evaluation struct {
	Feasible   bool
	Violation  string // first memory violation, if any
	StagePre   []float64
	StageDec   []float64
	StageMemGB []float64
	MemUtil    []float64
	PrefillSec float64
	DecodeSec  float64
	LatencySec float64
	Throughput float64 // generated tokens per second
	OmegaSum   float64
	Objective  float64
}

// Evaluate scores a plan under the given tables.
//
// The pipeline model (paper eq. 4 discussion): with k_p prefill
// micro-batches the prefill phase costs Σ_j t_pre,j + (k_p−1)·max_j t_pre,j
// (fill + steady drain bounded by the slowest stage). Decode runs
// (n−1)·k_d further micro-batch rounds through the slowest stage after a
// one-pipeline fill, so it costs Σ_j t_dec,j + ((n−1)·k_d − 1)·max_j t_dec,j.
// Stages are priced by stageSums and the phases by pipeline, which
// Algorithm 2's delta scorer shares.
func Evaluate(t *Tables, p *Plan) (Evaluation, error) {
	s := t.Spec
	if err := p.Validate(s); err != nil {
		return Evaluation{}, err
	}
	if p.PrefillMB != t.PrefillMB {
		return Evaluation{}, fmt.Errorf("assigner: plan prefill mb %d but tables built for %d", p.PrefillMB, t.PrefillMB)
	}
	if p.DecodeMB != t.DecodeMB {
		return Evaluation{}, fmt.Errorf("assigner: plan decode mb %d but tables built for %d", p.DecodeMB, t.DecodeMB)
	}
	n := p.NumStages()
	ev := Evaluation{
		Feasible:   true,
		StagePre:   make([]float64, n),
		StageDec:   make([]float64, n),
		StageMemGB: make([]float64, n),
		MemUtil:    make([]float64, n),
	}
	for g, bits := range p.GroupBits {
		w, err := s.Omega.At(g, bits)
		if err != nil {
			return Evaluation{}, err
		}
		ev.OmegaSum += w
	}
	var pl pipeline
	for j, d := range p.Order {
		c := stageSums(t, p, j, nil)
		pl.add(c)
		ev.StagePre[j] = c.pre
		ev.StageDec[j] = c.dec
		ev.StageMemGB[j] = c.mem / 1e9
		ev.MemUtil[j] = c.mem / t.Capacity[d]
		if c.mem > t.Capacity[d] && ev.Feasible {
			ev.Feasible = false
			ev.Violation = fmt.Sprintf("stage %d on device %d (%s): needs %.1fGB, capacity %.1fGB",
				j, d, s.Cluster.Devices[d].GPU.Name, c.mem/1e9, t.Capacity[d]/1e9)
		}
	}
	ev.PrefillSec, ev.DecodeSec = pl.sec(t)
	ev.LatencySec = ev.PrefillSec + ev.DecodeSec
	ev.Throughput = float64(s.Work.GlobalBatch*s.Work.Generate) / ev.LatencySec
	ev.Objective = ev.LatencySec + s.Theta*ev.OmegaSum
	return ev, nil
}

// stageCost is one stage's sums: seconds per prefill and decode
// micro-batch and bytes of memory.
type stageCost struct{ pre, dec, mem float64 }

// stageSums prices stage j of p: its groups in order, then the embedding
// on the first stage, the LM head and the return hop on the last, the hop
// to the next stage, and the temporaries. p must have passed Validate, so
// every group's bits are candidates. bi, if not nil, holds each group's
// Spec.Bits index, which is looked up otherwise.
func stageSums(t *Tables, p *Plan, j int, bi []int) stageCost {
	n := p.NumStages()
	d := p.Order[j]
	var c stageCost
	for g := p.Boundaries[j]; g < p.Boundaries[j+1]; g++ {
		var b int
		if bi != nil {
			b = bi[g]
		} else {
			b = bitIndexIn(t.Spec.Bits, p.GroupBits[g])
		}
		c.pre += t.TPre[d][b]
		c.dec += t.TDec[d][b]
		c.mem += t.GroupMem[b]
	}
	if j == 0 {
		c.pre += t.EmbedPre
		c.dec += t.EmbedDec
		c.mem += t.EmbedMem
	}
	if j == n-1 {
		c.mem += t.HeadMem
		if n > 1 {
			// Return hop to the master engine (small: one token's
			// hidden state per request).
			c.pre += t.CommDec[d][p.Order[0]]
			c.dec += t.CommDec[d][p.Order[0]]
		}
	}
	if j < n-1 {
		next := p.Order[j+1]
		c.pre += t.CommPre[d][next]
		c.dec += t.CommDec[d][next]
	}
	c.mem += t.TempMem
	return c
}

// pipeline accumulates a plan's stages, added in stage order, into the
// phase times of Evaluate's pipeline model.
type pipeline struct{ sumPre, sumDec, maxPre, maxDec float64 }

func (pl *pipeline) add(c stageCost) {
	pl.sumPre += c.pre
	pl.sumDec += c.dec
	// Comparisons, not the max builtin: a NaN stage time is skipped
	// rather than propagated into the bottleneck.
	if c.pre > pl.maxPre {
		pl.maxPre = c.pre
	}
	if c.dec > pl.maxDec {
		pl.maxDec = c.dec
	}
}

// sec returns the prefill and decode phase seconds.
func (pl *pipeline) sec(t *Tables) (prefill, decode float64) {
	kp, rounds := t.rounds()
	prefill = pl.sumPre + float64(kp-1)*pl.maxPre
	if rounds > 0 {
		decode = pl.sumDec + float64(rounds-1)*pl.maxDec
	}
	return prefill, decode
}

// Finalize stamps evaluation results into the plan.
func (p *Plan) Finalize(ev Evaluation) {
	p.Objective = ev.Objective
	p.LatencySec = ev.LatencySec
	p.OmegaSum = ev.OmegaSum
}

// GroupOmega collapses a per-layer Omega into a per-group Omega by summing
// members, matching Optimization #2 where a whole group shares one bit.
func GroupOmega(o indicator.Omega, group int) indicator.Omega {
	if group <= 1 {
		return o
	}
	out := indicator.Omega{Bits: o.Bits}
	for lo := 0; lo < o.Layers(); lo += group {
		hi := lo + group
		if hi > o.Layers() {
			hi = o.Layers()
		}
		row := make([]float64, len(o.Bits))
		for i := lo; i < hi; i++ {
			for bi := range o.Bits {
				row[bi] += o.Values[i][bi]
			}
		}
		out.Values = append(out.Values, row)
	}
	return out
}
