package assigner

// Algorithm 2: bitwidth transfer. Starting from an adabits solution, the
// heuristic repeatedly identifies the straggler (slowest) stage and applies
// the best improving transformation from the rule set C — moving boundary
// layers between adjacent stages (optionally converting their precision)
// or re-precision-ing a layer in place — until no single transformation
// improves the exact objective.

const transferMaxIters = 400

// bitwidthTransfer refines a plan in place-by-copy and returns the best
// found plan with its evaluation.
//
// Each step walks the candidates of rule set C lazily on one scratch plan
// and prices each by delta (transferEval), stopping at the first that
// beats the incumbent by more than 1e-12. Only that candidate is cloned,
// and its full Evaluate becomes the next incumbent's evaluation.
func bitwidthTransfer(t *Tables, start *Plan) (*Plan, *Evaluation, error) {
	best := clonePlan(start)
	bestEv, err := Evaluate(t, best)
	if err != nil {
		return nil, nil, err
	}
	d := newTransferEval(t, best)
	for iter := 0; iter < transferMaxIters; iter++ {
		var walkErr error
		improved := d.walk(func(lo, hi int) bool {
			obj, feasible, ok := d.score(lo, hi)
			if !ok {
				// Evaluate reports what the delta cannot price.
				ev, err := Evaluate(t, d.p)
				if err != nil {
					walkErr = err
					return true
				}
				obj, feasible = ev.Objective, ev.Feasible
			}
			return feasible && obj < bestEv.Objective-1e-12
		})
		if walkErr != nil {
			return nil, nil, walkErr
		}
		if !improved {
			break // greedy first-improvement found nothing better
		}
		best = clonePlan(d.p)
		if bestEv, err = Evaluate(t, best); err != nil {
			return nil, nil, err
		}
		d.load()
	}
	return best, &bestEv, nil
}

// transferEval prices bitwidthTransfer's candidates by delta. A candidate
// moves one boundary, which changes two stages, or steps one group's
// bits, which changes one; only those stages are recomputed, by Evaluate's
// own stageSums, and the pipeline by Evaluate's pipeline. ω is summed as
// Evaluate sums it, in group order, but from the incumbent's running sums:
// a candidate that changes no bits takes the incumbent's total, and one
// that changes group g takes the sum before g and adds ω of g onwards. The
// additions are Evaluate's, in its order, so every candidate's objective
// is bit-identical to Evaluate's.
type transferEval struct {
	t *Tables
	p *Plan
	// bi is the Spec.Bits index of each group's bits in p, or -1.
	bi []int
	// omega holds ω of group g at Spec.Bits[b] at g*len(Spec.Bits)+b;
	// omegaErr marks the entries whose Omega.At failed.
	omega    []float64
	omegaErr []bool
	// run[g] is the incumbent's ω sum over groups 0…g-1; it is valid only
	// if priced, that is, if every group of the incumbent has its ω.
	run    []float64
	priced bool
	// moved is the group whose bits p changes, or -1.
	moved int
	cur   []stageCost // the stages of the incumbent
	cand  []stageCost // the stages of p
}

// newTransferEval builds the delta evaluator on a scratch copy of
// incumbent, which must have passed Validate.
func newTransferEval(t *Tables, incumbent *Plan) *transferEval {
	s := t.Spec
	nb := len(s.Bits)
	L := len(incumbent.GroupBits)
	d := &transferEval{
		t:        t,
		p:        clonePlan(incumbent),
		bi:       make([]int, L),
		omega:    make([]float64, L*nb),
		omegaErr: make([]bool, L*nb),
		run:      make([]float64, L+1),
		cur:      make([]stageCost, incumbent.NumStages()),
		cand:     make([]stageCost, incumbent.NumStages()),
	}
	for g := range incumbent.GroupBits {
		for b, bits := range s.Bits {
			w, err := s.Omega.At(g, bits)
			d.omega[g*nb+b], d.omegaErr[g*nb+b] = w, err != nil
		}
	}
	for g, bits := range d.p.GroupBits {
		d.bi[g] = bitIndexIn(s.Bits, bits)
	}
	d.load()
	return d
}

// load takes the scratch plan, which has passed Validate, as the
// incumbent.
func (d *transferEval) load() {
	nb := len(d.t.Spec.Bits)
	d.moved, d.priced = -1, true
	for g, b := range d.bi {
		if b < 0 || d.omegaErr[g*nb+b] {
			d.priced = false
			break
		}
		d.run[g+1] = d.run[g] + d.omega[g*nb+b]
	}
	for j := range d.cur {
		d.cur[j] = stageSums(d.t, d.p, j, d.bi)
	}
	copy(d.cand, d.cur)
}

// score prices the scratch plan, in which a move has changed stages lo
// through hi, and leaves their costs in cand. ok is false when a group of
// the incumbent or of the scratch plan lacks its bits or ω in the tables;
// Evaluate must price it then.
func (d *transferEval) score(lo, hi int) (obj float64, feasible, ok bool) {
	if !d.priced {
		return 0, false, false
	}
	s := d.t.Spec
	L := len(d.bi)
	omega := d.run[L]
	if g := d.moved; g >= 0 {
		nb := len(s.Bits)
		if b := d.bi[g]; b < 0 || d.omegaErr[g*nb+b] {
			return 0, false, false
		}
		omega = d.run[g]
		for h := g; h < L; h++ {
			omega += d.omega[h*nb+d.bi[h]]
		}
	}
	for j := lo; j <= hi; j++ {
		d.cand[j] = stageSums(d.t, d.p, j, d.bi)
	}
	feasible = true
	var pl pipeline
	for j, c := range d.cand {
		pl.add(c)
		if c.mem > d.t.Capacity[d.p.Order[j]] {
			feasible = false
		}
	}
	prefill, decode := pl.sec(d.t)
	return prefill + decode + s.Theta*omega, feasible, true
}

// walk visits the candidates of rule set C for the incumbent in a fixed
// order:
//
//   - boundary shifts: each boundary b moves right (stage b-1 takes the
//     first group of stage b), then left (stage b takes the last group of
//     stage b-1), the moved group at its current bits, one step down and
//     one step up the bit ladder (e.g. the paper's (4, 8, 2) rule — replacing
//     one 8-bit layer with 4-bit layers on another stage — is a
//     composition of a shift plus precision conversions);
//   - in-place precision steps: each group one step down, then one step
//     up the bit ladder.
//
// Each candidate is applied to the scratch plan and visit is passed the
// stages it changed. When visit returns true the walk stops with that
// candidate applied and reports true; otherwise the move is undone.
func (d *transferEval) walk(visit func(lo, hi int) bool) bool {
	s, p := d.t.Spec, d.p
	n := p.NumStages()
	for b := 1; b < n; b++ {
		// Boundaries[b] separates stage b-1 from stage b; each side keeps
		// at least one group.
		if p.Boundaries[b+1]-p.Boundaries[b] > 1 && d.shift(b, p.Boundaries[b], 1, visit) {
			return true
		}
		if p.Boundaries[b]-p.Boundaries[b-1] > 1 && d.shift(b, p.Boundaries[b]-1, -1, visit) {
			return true
		}
	}
	j := 0
	for g := range p.GroupBits {
		for g >= p.Boundaries[j+1] {
			j++
		}
		cur := d.bi[g]
		if cur > 0 && d.try(g, s.Bits[cur-1], j, j, visit) {
			return true
		}
		if cur >= 0 && cur < len(s.Bits)-1 && d.try(g, s.Bits[cur+1], j, j, visit) {
			return true
		}
	}
	return false
}

// shift moves group g across boundary b, which step moves by ±1, at each
// of bitChoices.
func (d *transferEval) shift(b, g, step int, visit func(lo, hi int) bool) bool {
	choices, k := bitChoices(d.t.Spec, d.p.GroupBits[g])
	for _, bits := range choices[:k] {
		d.p.Boundaries[b] += step
		if d.try(g, bits, b-1, b, visit) {
			return true
		}
		d.p.Boundaries[b] -= step
	}
	return false
}

// try sets group g to bits, visits the scratch plan, and undoes the bits
// and the costs of stages lo through hi unless visit accepts.
func (d *transferEval) try(g, bits, lo, hi int, visit func(lo, hi int) bool) bool {
	old, oldBi := d.p.GroupBits[g], d.bi[g]
	d.p.GroupBits[g], d.bi[g] = bits, bitIndexIn(d.t.Spec.Bits, bits)
	d.moved = -1
	if bits != old {
		d.moved = g
	}
	if visit(lo, hi) {
		return true
	}
	d.p.GroupBits[g], d.bi[g] = old, oldBi
	copy(d.cand[lo:hi+1], d.cur[lo:hi+1])
	return false
}

// bitChoices returns the current bit plus its immediate ladder neighbors
// in out[:k].
func bitChoices(s *Spec, cur int) (out [3]int, k int) {
	out[0], k = cur, 1
	i := bitIndexIn(s.Bits, cur)
	if i > 0 {
		out[k], k = s.Bits[i-1], k+1
	}
	if i >= 0 && i < len(s.Bits)-1 {
		out[k], k = s.Bits[i+1], k+1
	}
	return out, k
}
