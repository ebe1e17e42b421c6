package assigner

import (
	"math"
	"sort"
)

// solveAdabits is the pure adaptive-quantization baseline of §6.9 and the
// starting point of the Algorithm 2 heuristic: the latency objective is
// dropped, layers are partitioned across devices in proportion to memory
// capacity, and each stage independently picks the quality-optimal (minimum
// ω) two-precision mixture that fits its memory. A stage reads a single
// range's sums per pair, sorting them (sortedSums), so bt needs no prefix
// sums.
func solveAdabits(t *Tables, order []int, bt *benefitTable) (*Plan, error) {
	s := t.Spec
	n := len(order)
	L := s.layerGroups()

	// Capacity-proportional partition (largest-remainder rounding), with
	// at least one group per stage.
	counts := make([]int, n)
	var totalCap float64
	for _, d := range order {
		totalCap += t.Capacity[d]
	}
	type rem struct {
		j    int
		frac float64
	}
	var rems []rem
	assigned := 0
	for j, d := range order {
		exact := float64(L) * t.Capacity[d] / totalCap
		counts[j] = int(exact)
		rems = append(rems, rem{j, exact - float64(counts[j])})
		assigned += counts[j]
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < L; i++ {
		counts[rems[i%n].j]++
		assigned++
	}
	for {
		moved := false
		for j := 0; j < n; j++ {
			if counts[j] == 0 {
				k := richestStage(counts)
				counts[k]--
				counts[j]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	p := &Plan{
		Order:      append([]int(nil), order...),
		Boundaries: make([]int, n+1),
		GroupBits:  make([]int, L),
		Group:      s.groupSize(),
		PrefillMB:  t.PrefillMB,
		DecodeMB:   t.DecodeMB,
	}
	lo := 0
	for j := 0; j < n; j++ {
		p.Boundaries[j] = lo
		lo += counts[j]
	}
	p.Boundaries[n] = L

	buf := make([]float64, L+1) // sortedSums' scratch
	for j := 0; j < n; j++ {
		d := order[j]
		_, _, cMem := StageConstants(t, order, j)
		capMem := t.Capacity[d] - cMem
		lo, hi := p.Boundaries[j], p.Boundaries[j+1]
		k := hi - lo
		bestOmega := math.Inf(1)
		bestPi, bestCntB := -1, 0
		for pi := range bt.pairs {
			pr := bt.pairs[pi]
			memA, memB := t.GroupMem[pr[0]], t.GroupMem[pr[1]]
			base, ps := bt.sortedSums(pi, lo, k, buf)
			for cntB := 0; cntB <= k; cntB++ {
				mem := float64(k-cntB)*memA + float64(cntB)*memB
				if mem > capMem {
					continue
				}
				w := base - ps[cntB]
				if w < bestOmega {
					bestOmega = w
					bestPi, bestCntB = pi, cntB
				}
			}
		}
		if bestPi < 0 {
			return nil, nil // stage cannot fit even at the lowest precision
		}
		pr := bt.pairs[bestPi]
		for g := lo; g < hi; g++ {
			p.GroupBits[g] = s.Bits[pr[0]]
		}
		for _, g := range upgradedSet(bt, bestPi, lo, k, bestCntB) {
			p.GroupBits[g] = s.Bits[pr[1]]
		}
	}
	return p, nil
}

func richestStage(counts []int) int {
	max := 0
	for j, c := range counts {
		if c > counts[max] {
			max = j
		}
	}
	return max
}
