package assigner

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// The structured DP solver (DESIGN.md §5.1).
//
// Because every decoder layer of an LLM has identical shape, a stage's
// execution time and memory depend only on *how many* of its groups use
// each bitwidth — not on which ones. Sensitivity ω varies per group, so
// once per-bit counts are fixed, giving the higher precision to the most
// sensitive groups in the stage's range is optimal (exchange argument).
//
// Stages are restricted to at most two distinct precisions. This mirrors
// the mixtures the paper observes in practice (e.g. INT8+FP16 when memory
// remains after uniform INT8, §2.4) and is verified against the full MILP
// on small instances in tests.
//
// The pipeline-max terms ((k_p−1)·max_j t_pre,j etc.) are handled by an
// ε-constraint scan: the DP minimizes the additive objective subject to
// per-stage time caps, and the caps are swept over a grid derived from the
// unconstrained solution; every candidate plan is re-scored exactly with
// Evaluate and the true best kept.

// infCost is the shared infeasibility sentinel: the initial value of DP
// cells and the "no cap" ε-scan time cap. It sits far enough below
// math.MaxFloat64 that saturating arithmetic (satAdd) can absorb real
// stage costs without overflowing to +Inf, and far above any finite
// objective the cost tables can produce, so a sentinel can never alias a
// feasible plan's value. Every comparison against it uses >=.
const infCost = math.MaxFloat64 / 4

// satAdd adds two non-negative costs, saturating at infCost: once either
// operand is the sentinel (or the sum would reach it), the result is
// exactly infCost and stays recognizable as infeasible.
func satAdd(a, b float64) float64 {
	if sum := a + b; sum < infCost {
		return sum
	}
	return infCost
}

// StageConstants returns the position-dependent constants of stage j
// under a device order: extra prefill/decode time (embedding, comm hops)
// and extra memory (embedding table, LM head, temporaries). The DP and
// the baselines, which build their own partitions over the same cost
// tables, add them to a stage's group sums.
func StageConstants(t *Tables, order []int, j int) (pre, dec, mem float64) {
	n := len(order)
	d := order[j]
	if j == 0 {
		pre += t.EmbedPre
		dec += t.EmbedDec
		mem += t.EmbedMem
	}
	if j == n-1 {
		mem += t.HeadMem
		if n > 1 {
			pre += t.CommDec[d][order[0]]
			dec += t.CommDec[d][order[0]]
		}
	}
	if j < n-1 {
		pre += t.CommPre[d][order[j+1]]
		dec += t.CommDec[d][order[j+1]]
	}
	mem += t.TempMem
	return pre, dec, mem
}

// benefitTable holds, for each bit pair, the ω savings of upgrading groups
// from bits A to bits B. A full table (buildBenefits) also stores, per
// range start, those savings sorted descending as prefix sums, so the DP
// reads any range's sums in O(1) (rangeSums); solveAdabits sorts the one
// range per stage it reads (sortedSums), so it needs no prefix sums.
type benefitTable struct {
	pairs [][2]int // index pairs (biA, biB), biA < biB by index
	// base[biA][lo] = prefix sums of ω(l, bitsA): baseSum(lo,hi) fast.
	base [][]float64
	// omega[bi][l] = ω(l, bits bi), the input of both range-sum paths.
	omega [][]float64
	// prefix[pi][lo][off(k)+c]: the sum of the c largest benefits among
	// the k groups [lo, lo+k), for c = 0..k, at off(k) = (k-1)(k+2)/2.
	// Nil in a table from buildBenefitBase.
	prefix [][][]float64
}

// buildBenefitBase builds a benefit table without prefix sums: the pairs,
// each bit's ω and its running sums, O(bits·L).
func buildBenefitBase(s *Spec) (*benefitTable, error) {
	nb := len(s.Bits)
	L := s.layerGroups()
	bt := &benefitTable{omega: make([][]float64, nb), base: make([][]float64, nb)}
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			bt.pairs = append(bt.pairs, [2]int{a, b})
		}
	}
	for bi, bits := range s.Bits {
		ws := make([]float64, L)
		ps := make([]float64, L+1)
		for l := 0; l < L; l++ {
			w, err := s.Omega.At(l, bits)
			if err != nil {
				return nil, err
			}
			ws[l] = w
			ps[l+1] = ps[l] + w
		}
		bt.omega[bi] = ws
		bt.base[bi] = ps
	}
	return bt, nil
}

// buildBenefits builds the full benefit table, O(pairs·L³) floats: the
// DP reads the sums of every range up to its stage bound.
func buildBenefits(s *Spec) (*benefitTable, error) {
	bt, err := buildBenefitBase(s)
	if err != nil {
		return nil, err
	}
	L := s.layerGroups()
	sorted := make([]float64, 0, L)
	bt.prefix = make([][][]float64, len(bt.pairs))
	for pi, pr := range bt.pairs {
		wa, wb := bt.omega[pr[0]], bt.omega[pr[1]]
		bt.prefix[pi] = make([][]float64, L)
		for lo := 0; lo < L; lo++ {
			// Ranges [lo, lo+k), k = 1..K, hold K prefixes of k+1 sums.
			K := L - lo
			flat := make([]float64, K*(K+3)/2)
			// Grow the descending benefit list one group at a time,
			// inserting in the order sort.Reverse(sort.Float64Slice)
			// sorts (NaN last), so each k's prefix sums are bit-identical
			// to re-sorting the first k benefits, as sortedSums does:
			// equal values differ at most in the sign of zero, which no
			// prefix sum sees. The sums before the insertion point are
			// k-1's, copied.
			sorted = sorted[:0]
			var prev []float64
			for k, off := 1, 0; k <= K; k, off = k+1, off+k+1 {
				v := wa[lo+k-1] - wb[lo+k-1]
				at := len(sorted)
				if !math.IsNaN(v) {
					at = sort.Search(len(sorted), func(i int) bool { return !(sorted[i] >= v) })
				}
				sorted = append(sorted, 0)
				copy(sorted[at+1:], sorted[at:])
				sorted[at] = v
				ps := flat[off : off+k+1]
				copy(ps[:at+1], prev)
				for i := at; i < k; i++ {
					ps[i+1] = ps[i] + sorted[i]
				}
				prev = ps
			}
			bt.prefix[pi][lo] = flat
		}
	}
	return bt, nil
}

// rangeSums returns range [lo, lo+k)'s ω sum at pair pi's low bit and its
// benefit prefix sums from a full table: base - ps[c] is the range's
// minimum ω with c groups at the pair's high bit.
func (bt *benefitTable) rangeSums(pi, lo, k int) (base float64, ps []float64) {
	a := bt.base[bt.pairs[pi][0]]
	off := (k - 1) * (k + 2) / 2
	return a[lo+k] - a[lo], bt.prefix[pi][lo][off : off+k+1]
}

// sortedSums is rangeSums without the prefix table: it sorts the range's
// benefits into buf, which must hold k+1 floats, and prefix-sums them,
// bit-equal to the full table.
func (bt *benefitTable) sortedSums(pi, lo, k int, buf []float64) (base float64, ps []float64) {
	pr := bt.pairs[pi]
	a, wa, wb := bt.base[pr[0]], bt.omega[pr[0]], bt.omega[pr[1]]
	ps = buf[:k+1]
	ps[0] = 0
	for i := 1; i <= k; i++ {
		ps[i] = wa[lo+i-1] - wb[lo+i-1]
	}
	// Descending with NaN last: sort.Reverse(sort.Float64Slice)'s order.
	slices.SortFunc(ps[1:], func(x, y float64) int { return cmp.Compare(y, x) })
	for i := 1; i <= k; i++ {
		ps[i] = ps[i-1] + ps[i]
	}
	return a[lo+k] - a[lo], ps
}

// upgradedSet returns the cntB group indices in [lo,lo+k) with the largest
// upgrade benefit for pair pi, ties broken by the lower index
// (reconstruction only).
func upgradedSet(bt *benefitTable, pi, lo, k, cntB int) []int {
	pr := bt.pairs[pi]
	wa, wb := bt.omega[pr[0]], bt.omega[pr[1]]
	idx := make([]int, k)
	for i := range idx {
		idx[i] = lo + i
	}
	// The order is sort.Slice's less, returned as -1 or +1: the generic
	// sort tests only cmp < 0, where sort.Slice tests less, so even NaN
	// and ±0 benefits land where sort.Slice put them.
	slices.SortFunc(idx, func(x, y int) int {
		bx, by := wa[x]-wb[x], wa[y]-wb[y]
		if bx > by || (!(bx < by) && x < y) {
			return -1
		}
		return 1
	})
	return idx[:cntB]
}

type dpChoice struct {
	k    int
	pi   int
	cntB int
}

// mixture is one memory-feasible precision mixture of a (stage, group
// count) cell: cntB groups at pair pi's high bit, the rest at its low bit.
type mixture struct {
	pi, cntB int
	pre, dec float64 // stage times, compared against the ε caps
	// wPre, wDec are pre and dec under the surrogate weights, the terms
	// the DP objective adds.
	wPre, wDec float64
}

// mixTable lists, per stage j (1-based) and group count k, the stage's
// memory-feasible mixtures in (pi, cntB) order. None of it depends on the
// range start or on the ε caps, so one table serves the unconstrained
// pass and every grid pass of a solveStructured call.
type mixTable struct {
	kmax   int
	cells  [][]mixture // [(j-1)*kmax + k-1]
	widest int         // the longest cell
}

func (mt *mixTable) at(j, k int) []mixture { return mt.cells[(j-1)*mt.kmax+k-1] }

func newMixTable(t *Tables, order []int, bt *benefitTable, kmax int) *mixTable {
	n := len(order)
	// Surrogate weights: the true objective charges the bottleneck stage
	// (k_p−1)× extra prefill rounds and (rounds−1)× extra decode rounds.
	// A balanced pipeline spreads that premium evenly across stages, so
	// weighting every stage's time by 1 + extra/n steers the additive DP
	// toward the right basin; the ε-cap scan plus exact re-evaluation
	// still decide the final plan.
	kp, rounds := t.rounds()
	preW := 1 + float64(kp-1)/float64(n)
	decW := 1.0
	if rounds > 0 {
		decW = 1 + float64(rounds-1)/float64(n)
	}
	mt := &mixTable{kmax: kmax, cells: make([][]mixture, n*kmax)}
	ends := make([]int, n*kmax)
	// Two passes over the candidates: count the memory-feasible ones,
	// then fill a table of exactly that size.
	var all []mixture
	for size, fill := 0, false; ; fill = true {
		for j := 1; j <= n; j++ {
			d := order[j-1]
			cPre, cDec, cMem := StageConstants(t, order, j-1)
			capMem := t.Capacity[d] - cMem
			for k := 1; k <= kmax; k++ {
				for pi, pr := range bt.pairs {
					memA, memB := t.GroupMem[pr[0]], t.GroupMem[pr[1]]
					preA, preB := t.TPre[d][pr[0]], t.TPre[d][pr[1]]
					decA, decB := t.TDec[d][pr[0]], t.TDec[d][pr[1]]
					for cntB := 0; cntB <= k; cntB++ {
						cA := float64(k - cntB)
						cB := float64(cntB)
						mem := cA*memA + cB*memB
						if mem > capMem {
							continue
						}
						if !fill {
							size++
							continue
						}
						pre := cA*preA + cB*preB + cPre
						dec := cA*decA + cB*decB + cDec
						all = append(all, mixture{pi: pi, cntB: cntB, pre: pre, dec: dec, wPre: preW * pre, wDec: decW * dec})
					}
				}
				ends[(j-1)*kmax+k-1] = len(all)
			}
		}
		if fill {
			break
		}
		all = make([]mixture, 0, size)
	}
	lo := 0
	for i, hi := range ends {
		mt.cells[i] = all[lo:hi:hi]
		if hi-lo > mt.widest {
			mt.widest = hi - lo
		}
		lo = hi
	}
	return mt
}

// dpBuf is the scratch of a solveStructured call's DP passes: the cost and
// choice grids, flattened as [j*(L+1) + l], and the mixtures of one (stage,
// group count) cell that meet a pass's time caps. Every pass of the call
// reuses the one buffer.
//
// An unconstrained pass also keeps its grids as the reference that later
// capped passes take cells from (solveDP): refCost and refChoice, and
// refPre and refDec, the largest mixture-table stage times on the path to
// each reachable cell.
type dpBuf struct {
	cost   []float64
	choice []dpChoice
	mixes  []mixture
	// hasRef is set once an unconstrained pass has filled the reference.
	hasRef                  bool
	refCost, refPre, refDec []float64
	refChoice               []dpChoice
	// open marks the cells of the current row that a pass must scan.
	open []bool
	// reused counts the cells the last pass took from the reference.
	reused int
}

func newDPBuf(n, L int, mt *mixTable) *dpBuf {
	size := (n + 1) * (L + 1)
	grids := make([]float64, 4*size)
	choices := make([]dpChoice, 2*size)
	return &dpBuf{
		cost:      grids[:size:size],
		refCost:   grids[size : 2*size : 2*size],
		refPre:    grids[2*size : 3*size : 3*size],
		refDec:    grids[3*size:],
		choice:    choices[:size:size],
		refChoice: choices[size:],
		mixes:     make([]mixture, 0, mt.widest),
		open:      make([]bool, L+1),
	}
}

// solveDP finds the best plan for a fixed device order and micro-batch
// sizing under per-stage time caps. Returns nil if infeasible.
//
// A cell (j, l) only reads row j-1, so the (k, l) loops may nest either
// way; k outermost lets one cap filter per (stage, group count) serve every
// range end l, and each cell still sees its candidates in (k, pi, cntB)
// order, which the strict-improvement rule's tie-breaking depends on.
//
// Row n is read only at l = L, so only that cell of it is filled; every
// other cell of row n keeps infCost.
//
// An unconstrained pass (both caps infCost) keeps its grids in buf as the
// reference. A capped pass after it scans no candidates of a cell the
// reference decides, the rule of epsPass.decides applied to one cell:
//   - a cell that is infCost in the reference stays infCost;
//   - a cell whose reference path fits both caps takes the reference's
//     cost and choice. Tighter caps only remove candidates and every cell
//     cost is monotone, so the candidates before the reference's choice
//     still cost strictly more, the choice costs the same and the later
//     ones no less, and the strict-improvement rule keeps (k, pi, cntB).
func solveDP(t *Tables, order []int, bt *benefitTable, mt *mixTable, buf *dpBuf, capPre, capDec float64) (*Plan, error) {
	s := t.Spec
	n := len(order)
	L := s.layerGroups()
	w := L + 1
	dp, choice, open := buf.cost, buf.choice, buf.open
	capped := capPre < infCost || capDec < infCost
	reuse := capped && buf.hasRef
	for i := range dp {
		dp[i] = infCost
	}
	dp[0] = 0
	cells := 0
	buf.reused = 0
	for j := 1; j <= n; j++ {
		row, prevRow := dp[j*w:(j+1)*w], dp[(j-1)*w:j*w]
		first, last := j, L-(n-j)
		if j == n {
			first = L
		}
		scan := 0
		for l := first; l <= last; l++ {
			i := j*w + l
			switch {
			case !reuse:
				open[l] = true
			case buf.refCost[i] >= infCost:
				open[l] = false
			case buf.refPre[i] <= capPre && buf.refDec[i] <= capDec:
				row[l], choice[i] = buf.refCost[i], buf.refChoice[i]
				open[l] = false
				buf.reused++
			default:
				open[l] = true
			}
			if open[l] {
				scan++
			}
		}
		if scan == 0 {
			continue
		}
		for k := 1; k <= mt.kmax; k++ {
			from := j + k - 1
			if from < first {
				from = first
			}
			if from > last {
				continue
			}
			mixes := buf.mixes[:0]
			for _, m := range mt.at(j, k) {
				if m.pre > capPre || m.dec > capDec {
					continue
				}
				mixes = append(mixes, m)
			}
			if len(mixes) == 0 {
				continue
			}
			for l := from; l <= last; l++ {
				prev := prevRow[l-k]
				if !open[l] || prev >= infCost {
					continue
				}
				lo := l - k
				cells += len(mixes)
				// Mixtures come grouped by pair: fetch each pair's range
				// sums once.
				pi, base, ps := -1, 0.0, []float64(nil)
				for i := range mixes {
					m := &mixes[i]
					if m.pi != pi {
						pi = m.pi
						base, ps = bt.rangeSums(pi, lo, k)
					}
					omega := base - ps[m.cntB]
					// Nested so finite sums keep the historical left-to-right
					// association — golden plans are sensitive to the rounding.
					cost := satAdd(satAdd(satAdd(prev, m.wPre), m.wDec), s.Theta*omega)
					if cost < row[l] {
						row[l] = cost
						choice[j*w+l] = dpChoice{k: k, pi: m.pi, cntB: m.cntB}
					}
				}
			}
		}
	}
	if !capped {
		buf.keepRef(mt, n, L)
	}
	obsDPCells(s.Obs, cells)
	if dp[n*w+L] >= infCost {
		return nil, nil
	}
	// Reconstruct.
	p := &Plan{
		Order:      append([]int(nil), order...),
		Boundaries: make([]int, n+1),
		GroupBits:  make([]int, L),
		Group:      s.groupSize(),
		PrefillMB:  t.PrefillMB,
		DecodeMB:   t.DecodeMB,
	}
	l := L
	p.Boundaries[n] = L
	for j := n; j >= 1; j-- {
		ch := choice[j*w+l]
		lo := l - ch.k
		p.Boundaries[j-1] = lo
		pr := bt.pairs[ch.pi]
		for g := lo; g < l; g++ {
			p.GroupBits[g] = s.Bits[pr[0]]
		}
		for _, g := range upgradedSet(bt, ch.pi, lo, ch.k, ch.cntB) {
			p.GroupBits[g] = s.Bits[pr[1]]
		}
		l = lo
	}
	if l != 0 {
		return nil, fmt.Errorf("assigner: DP reconstruction consumed %d groups, expected 0 left", l)
	}
	return p, nil
}

// keepRef stores the grids of the unconstrained pass just run on buf as
// the reference, with the largest stage times on each reachable cell's
// path, found by looking up each chosen mixture.
func (buf *dpBuf) keepRef(mt *mixTable, n, L int) {
	w := L + 1
	copy(buf.refCost, buf.cost)
	copy(buf.refChoice, buf.choice)
	buf.refPre[0], buf.refDec[0] = math.Inf(-1), math.Inf(-1)
	for j := 1; j <= n; j++ {
		for l := j; l <= L-(n-j); l++ {
			i := j*w + l
			if buf.cost[i] >= infCost {
				continue
			}
			ch := buf.choice[i]
			m, from := mt.find(j, ch), i-w-ch.k
			buf.refPre[i], buf.refDec[i] = math.Max(buf.refPre[from], m.pre), math.Max(buf.refDec[from], m.dec)
		}
	}
	buf.hasRef = true
}

// find returns the mixture that choice ch of stage j names. Every choice a
// pass makes is in the table; a NaN-timed stand-in for one that is not
// would only keep ε passes from skipping cells or passes.
func (mt *mixTable) find(j int, ch dpChoice) mixture {
	for _, m := range mt.at(j, ch.k) {
		if m.pi == ch.pi && m.cntB == ch.cntB {
			return m
		}
	}
	return mixture{pre: math.NaN(), dec: math.NaN()}
}

// benefitsFor builds (or fetches from the spec's cache) the full benefit
// table every DP solve of an Optimize call shares. It covers every range
// [lo, lo+k) of the layer groups, so it answers whatever per-stage bound
// the DP uses and stays valid when a fleet change alters that bound. The
// adabits and heuristic methods do not use it: Optimize builds them a
// table without prefix sums (buildBenefitBase), O(bits·L) and uncached.
func benefitsFor(s *Spec) (*benefitTable, error) {
	build := func() (*benefitTable, error) { return buildBenefits(s) }
	if s.Cache == nil {
		return build()
	}
	return s.Cache.benefits("benefits|"+s.benefitsKey(), build)
}

// epsGrid holds the ε scan's cap factors, applied in this order to the
// unconstrained plan's largest stage prefill and decode times.
var epsGrid = [...][2]float64{
	{0.92, 0.92}, {0.82, 0.82}, {0.7, 0.7}, {0.55, 0.55}, {0.4, 0.4},
	{1, 0.7}, {0.7, 1}, {1, 0.45}, {0.45, 1}, {0.85, 0.6}, {0.6, 0.85},
}

// epsPass records one DP pass of an ε scan: its caps, whether it found a
// plan, and the largest stage times (as the mixture table states them)
// on that plan's path.
type epsPass struct {
	capPre, capDec   float64
	found            bool
	pathPre, pathDec float64
}

// decides reports whether pass e fixes the outcome of a pass under the
// caps (capPre, capDec) without running it. Tighter caps only remove
// candidates, and every cell's cost is monotone in its candidates and in
// the row below (satAdd and IEEE rounding are monotone), so if e's caps
// are at least as loose in both dimensions then:
//   - e found no plan, so the tighter pass finds none either;
//   - e's path fits under the tighter caps, so the tighter pass keeps
//     every cell on it: the candidates before each cell's choice still
//     cost strictly more, the choice costs the same, the later ones no
//     less, and the strict-improvement rule picks the same (k, pi, cntB).
//     It returns a deep-equal plan, which cannot strictly improve on the
//     incumbent, since e's plan was already offered to it.
func (e epsPass) decides(capPre, capDec float64) bool {
	if !(e.capPre >= capPre && e.capDec >= capDec) {
		return false
	}
	return !e.found || (e.pathPre <= capPre && e.pathDec <= capDec)
}

// lastPass records the last solveDP pass on buf, run under the caps
// (capPre, capDec): whether it found a plan and, if so, the largest stage
// times on its path to (n, L), as the mixture table states them.
func lastPass(mt *mixTable, buf *dpBuf, n, L int, capPre, capDec float64, found bool) epsPass {
	e := epsPass{capPre: capPre, capDec: capDec, found: found, pathPre: math.Inf(-1), pathDec: math.Inf(-1)}
	for j, l := n, L; found && j >= 1; j-- {
		ch := buf.choice[j*(L+1)+l]
		m := mt.find(j, ch)
		e.pathPre, e.pathDec = math.Max(e.pathPre, m.pre), math.Max(e.pathDec, m.dec)
		l -= ch.k
	}
	return e
}

// solveStructured runs the ε-constraint scan for one (order, tables) pair
// and returns the best exactly-evaluated feasible plan, or nil. The grid
// passes run in index order on one DP buffer over the shared read-only
// benefit and mixture tables; the first error is returned, and a pass's
// plan replaces the incumbent only on strict improvement. A grid pass
// that an earlier pass decides (epsPass.decides) is not run: it would
// find no plan, or the earlier pass's plan again. A grid pass that runs
// takes every cell the unconstrained pass decides from it (solveDP).
func solveStructured(t *Tables, order []int, bt *benefitTable) (*Plan, *Evaluation, error) {
	s := t.Spec
	n := len(order)
	L := s.layerGroups()
	kmax := L - (n - 1)
	perStage := (L + n - 1) / n
	if lim := 3*perStage + 2; lim < kmax {
		kmax = lim
	}
	mt := newMixTable(t, order, bt, kmax)
	buf := newDPBuf(n, L, mt)
	// Unconstrained pass: the caps are the shared sentinel, which no
	// finite stage time can reach.
	base, err := solveDP(t, order, bt, mt, buf, infCost, infCost)
	if err != nil || base == nil {
		return nil, nil, err
	}
	passes := append(make([]epsPass, 0, len(epsGrid)+1), lastPass(mt, buf, n, L, infCost, infCost, true))
	bestPlan := base
	bestEv, err := Evaluate(t, base)
	if err != nil {
		return nil, nil, err
	}
	maxPre, maxDec := maxOf(bestEv.StagePre), maxOf(bestEv.StageDec)
	// Degenerate-input guard: a timer that leaks NaN into the stage times
	// must not poison the ε-caps (NaN caps make every > comparison false,
	// silently disabling the memory/time pruning). satAdd already absorbs
	// NaN cells into the infeasibility sentinel; if NaN still reached the
	// base evaluation, declare the combination infeasible rather than
	// sweep garbage.
	if math.IsNaN(maxPre) || math.IsNaN(maxDec) {
		return nil, nil, nil
	}
grid:
	for _, fc := range epsGrid {
		capPre, capDec := fc[0]*maxPre, fc[1]*maxDec
		for _, e := range passes {
			if e.decides(capPre, capDec) {
				continue grid
			}
		}
		p, err := solveDP(t, order, bt, mt, buf, capPre, capDec)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, lastPass(mt, buf, n, L, capPre, capDec, p != nil))
		if p == nil {
			continue
		}
		ev, err := Evaluate(t, p)
		if err != nil {
			return nil, nil, err
		}
		if ev.Feasible && ev.Objective < bestEv.Objective {
			bestPlan, bestEv = p, ev
		}
	}
	if !bestEv.Feasible {
		return nil, nil, nil
	}
	// Local-search polish: the DP restricts stages to two precisions; a
	// bitwidth-transfer pass (Algorithm 2's move set) recovers any gain a
	// third precision or a cap the ε-grid missed could offer.
	polished, pev, err := bitwidthTransfer(t, bestPlan)
	if err != nil {
		return nil, nil, err
	}
	if pev.Feasible && pev.Objective < bestEv.Objective {
		bestPlan, bestEv = polished, *pev
	}
	// Also descend from the adabits basin: guarantees MethodDP dominates
	// both the pure-quantization baseline and the heuristic.
	if seed, err := solveAdabits(t, order, bt); err != nil {
		return nil, nil, err
	} else if seed != nil {
		hplan, hev, err := bitwidthTransfer(t, seed)
		if err != nil {
			return nil, nil, err
		}
		if hev.Feasible && hev.Objective < bestEv.Objective {
			bestPlan, bestEv = hplan, *hev
		}
	}
	return bestPlan, &bestEv, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
