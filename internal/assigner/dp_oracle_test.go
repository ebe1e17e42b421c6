package assigner

// The structured-DP kernel as it stood before the stage-mixture table, the
// O(1) ω lookup, the incremental benefit table and the reuse of the
// unconstrained pass's cells: buildBenefits, flatten, omegaFor, solveDP
// and upgradedSet, verbatim except that they are renamed, omegaFor is a
// function instead of a method, and solveDP also returns its cost table.
// The oracle fills the whole last row; the kernel computes only (n, L).
// TestDPMatchesOracle and FuzzDPMatchesOracle check the production kernel
// against it, and TestUpgradedSetMatchesOracle the reflection-free
// upgradedSet.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/indicator"
	"repro/internal/model"
)

func oracleBuildBenefits(s *Spec, kmax int) (*benefitTable, error) {
	nb := len(s.Bits)
	L := s.layerGroups()
	bt := &benefitTable{}
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			bt.pairs = append(bt.pairs, [2]int{a, b})
		}
	}
	bt.base = make([][]float64, nb)
	for bi, bits := range s.Bits {
		ps := make([]float64, L+1)
		for l := 0; l < L; l++ {
			w, err := s.Omega.At(l, bits)
			if err != nil {
				return nil, err
			}
			ps[l+1] = ps[l] + w
		}
		bt.base[bi] = ps
	}
	bt.prefix = make([][][]float64, len(bt.pairs))
	for pi, pr := range bt.pairs {
		bt.prefix[pi] = make([][]float64, L)
		bitsA, bitsB := s.Bits[pr[0]], s.Bits[pr[1]]
		for lo := 0; lo < L; lo++ {
			hiMax := lo + kmax
			if hiMax > L {
				hiMax = L
			}
			benefits := make([]float64, 0, hiMax-lo)
			for l := lo; l < hiMax; l++ {
				wa, err := s.Omega.At(l, bitsA)
				if err != nil {
					return nil, err
				}
				wb, err := s.Omega.At(l, bitsB)
				if err != nil {
					return nil, err
				}
				benefits = append(benefits, wa-wb)
			}
			// For each sub-range [lo,hi) we need its own sorted prefix; we
			// store per (lo, k) the prefix sums of the k largest benefits
			// among the first k entries. Computing per k by re-sorting is
			// O(k² log k) per lo; keep k small via kmax.
			prefixes := make([][]float64, hiMax-lo+1)
			for k := 1; k <= hiMax-lo; k++ {
				sub := append([]float64(nil), benefits[:k]...)
				sort.Sort(sort.Reverse(sort.Float64Slice(sub)))
				ps := make([]float64, k+1)
				for i, v := range sub {
					ps[i+1] = ps[i] + v
				}
				prefixes[k] = ps
			}
			bt.prefix[pi][lo] = oracleFlatten(prefixes)
		}
	}
	return bt, nil
}

// oracleFlatten packs per-k prefix arrays into one slice with offsets k(k+1)/2.
func oracleFlatten(prefixes [][]float64) []float64 {
	var out []float64
	for k := 1; k < len(prefixes); k++ {
		out = append(out, prefixes[k]...)
	}
	return out
}

// oracleOmegaFor returns the minimum ω of range [lo, lo+k) with cntB groups at
// pair's high bit and k-cntB at the low bit, plus which groups to upgrade.
func oracleOmegaFor(bt *benefitTable, pi, lo, k, cntB int) float64 {
	pr := bt.pairs[pi]
	base := bt.base[pr[0]][lo+k] - bt.base[pr[0]][lo]
	// Locate prefix sums for this k: offset = Σ_{i=1}^{k-1} (i+1).
	off := 0
	for i := 1; i < k; i++ {
		off += i + 1
	}
	ps := bt.prefix[pi][lo][off : off+k+1]
	return base - ps[cntB]
}

// oracleUpgradedSet returns the cntB group indices in [lo,lo+k) with the largest
// upgrade benefit for pair pi (recomputed directly; reconstruction only).
func oracleUpgradedSet(s *Spec, pi int, bt *benefitTable, lo, k, cntB int) ([]int, error) {
	pr := bt.pairs[pi]
	bitsA, bitsB := s.Bits[pr[0]], s.Bits[pr[1]]
	type lb struct {
		idx int
		ben float64
	}
	var arr []lb
	for l := lo; l < lo+k; l++ {
		wa, err := s.Omega.At(l, bitsA)
		if err != nil {
			return nil, err
		}
		wb, err := s.Omega.At(l, bitsB)
		if err != nil {
			return nil, err
		}
		arr = append(arr, lb{l, wa - wb})
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].ben > arr[j].ben {
			return true
		}
		if arr[i].ben < arr[j].ben {
			return false
		}
		return arr[i].idx < arr[j].idx
	})
	var out []int
	for i := 0; i < cntB; i++ {
		out = append(out, arr[i].idx)
	}
	return out, nil
}

// oracleSolveDP finds the best plan for a fixed device order and micro-batch
// sizing under per-stage time caps. Returns nil if infeasible.
func oracleSolveDP(t *Tables, order []int, bt *benefitTable, kmax int, capPre, capDec float64) (*Plan, [][]float64, error) {
	s := t.Spec
	n := len(order)
	L := s.layerGroups()
	dp := make([][]float64, n+1)
	choice := make([][]dpChoice, n+1)
	for j := range dp {
		dp[j] = make([]float64, L+1)
		choice[j] = make([]dpChoice, L+1)
		for l := range dp[j] {
			dp[j][l] = infCost
		}
	}
	dp[0][0] = 0
	cells := 0
	// Surrogate weights: the true objective charges the bottleneck stage
	// (k_p−1)× extra prefill rounds and (rounds−1)× extra decode rounds.
	// A balanced pipeline spreads that premium evenly across stages, so
	// weighting every stage's time by 1 + extra/n steers the additive DP
	// toward the right basin; the ε-cap scan plus exact re-evaluation
	// still decide the final plan.
	kp := (s.Work.GlobalBatch + t.PrefillMB - 1) / t.PrefillMB
	kd := (s.Work.GlobalBatch + t.DecodeMB - 1) / t.DecodeMB
	rounds := (s.Work.Generate - 1) * kd
	preW := 1 + float64(kp-1)/float64(n)
	decW := 1.0
	if rounds > 0 {
		decW = 1 + float64(rounds-1)/float64(n)
	}
	for j := 1; j <= n; j++ {
		d := order[j-1]
		cPre, cDec, cMem := StageConstants(t, order, j-1)
		capMem := t.Capacity[d] - cMem
		for l := j; l <= L-(n-j); l++ {
			for k := 1; k <= kmax && k <= l-(j-1); k++ {
				prev := dp[j-1][l-k]
				if prev >= infCost {
					continue
				}
				lo := l - k
				for pi := range bt.pairs {
					pr := bt.pairs[pi]
					memA, memB := t.GroupMem[pr[0]], t.GroupMem[pr[1]]
					preA, preB := t.TPre[d][pr[0]], t.TPre[d][pr[1]]
					decA, decB := t.TDec[d][pr[0]], t.TDec[d][pr[1]]
					for cntB := 0; cntB <= k; cntB++ {
						cells++
						cA := float64(k - cntB)
						cB := float64(cntB)
						mem := cA*memA + cB*memB
						if mem > capMem {
							continue
						}
						pre := cA*preA + cB*preB + cPre
						if pre > capPre {
							continue
						}
						dec := cA*decA + cB*decB + cDec
						if dec > capDec {
							continue
						}
						omega := oracleOmegaFor(bt, pi, lo, k, cntB)
						// Nested so finite sums keep the historical left-to-right
						// association — golden plans are sensitive to the rounding.
						cost := satAdd(satAdd(satAdd(prev, preW*pre), decW*dec), s.Theta*omega)
						if cost < dp[j][l] {
							dp[j][l] = cost
							choice[j][l] = dpChoice{k: k, pi: pi, cntB: cntB}
						}
					}
				}
			}
		}
	}
	obsDPCells(s.Obs, cells)
	if dp[n][L] >= infCost {
		return nil, dp, nil
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
		ch := choice[j][l]
		lo := l - ch.k
		p.Boundaries[j-1] = lo
		pr := bt.pairs[ch.pi]
		for g := lo; g < l; g++ {
			p.GroupBits[g] = s.Bits[pr[0]]
		}
		up, err := oracleUpgradedSet(s, ch.pi, bt, lo, ch.k, ch.cntB)
		if err != nil {
			return nil, dp, err
		}
		for _, g := range up {
			p.GroupBits[g] = s.Bits[pr[1]]
		}
		l = lo
	}
	if l != 0 {
		return nil, dp, fmt.Errorf("assigner: DP reconstruction consumed %d groups, expected 0 left", l)
	}
	return p, dp, nil
}

// tick is the time unit of quantized instances: a power of two, so that
// stage times sum exactly and can tie with each other and with caps.
const tick = 1.0 / 1024

// randomDPInstance builds seeded random tables for the DP kernel: 2–5
// candidate bits, random or tie-heavy ω (optionally leaking NaN), tight
// or loose device memory, random or quantized times, and optionally a
// timer that leaks NaN stage times. quantized reports whether every time
// is a small multiple of tick.
func randomDPInstance(rng *rand.Rand) (t *Tables, order []int, quantized bool) {
	L := 1 + rng.Intn(20)
	ladder := []int{2, 3, 4, 5, 6, 8, 16}
	nb := 2 + rng.Intn(4)
	pick := rng.Perm(len(ladder))[:nb]
	sort.Ints(pick)
	bits := make([]int, nb)
	for i, p := range pick {
		bits[i] = ladder[p]
	}
	omegaMode := rng.Intn(4) // 0, 1 continuous; 2 ties; 3 ties with NaN
	omega := indicator.Omega{Bits: bits}
	for l := 0; l < L; l++ {
		row := make([]float64, nb)
		for i := range row {
			switch omegaMode {
			case 0, 1:
				row[i] = rng.Float64() / float64(bits[i])
			default:
				row[i] = float64(rng.Intn(3)) * 0.5
				if omegaMode == 3 && rng.Intn(8) == 0 {
					row[i] = math.NaN()
				}
			}
		}
		omega.Values = append(omega.Values, row)
	}
	n := 1 + rng.Intn(4)
	if n > L {
		n = L
	}
	batch := 8 * (1 + rng.Intn(4))
	s := &Spec{
		Cfg:   model.Config{Name: "random", Layers: L},
		Work:  Workload{GlobalBatch: batch, Prompt: 128, Generate: 1 + rng.Intn(50)},
		Bits:  bits,
		Omega: omega,
		Theta: []float64{0.01, 1, 100}[rng.Intn(3)],
	}
	quantized = rng.Intn(3) == 0
	tm := func(scale float64) float64 {
		if quantized {
			return float64(rng.Intn(3)) * tick
		}
		return rng.Float64() * scale
	}
	t = &Tables{
		Spec:      s,
		PrefillMB: 1 + rng.Intn(batch),
		DecodeMB:  1 + rng.Intn(batch),
		GroupMem:  make([]float64, nb),
		TempMem:   rng.Float64(),
		EmbedMem:  rng.Float64(),
		HeadMem:   rng.Float64(),
		EmbedPre:  tm(1e-3),
		EmbedDec:  tm(1e-4),
	}
	for i, b := range bits {
		t.GroupMem[i] = float64(b) * (1 + rng.Float64())
	}
	// Loose memory fits every stage at 16 bits; tight memory fits
	// roughly the average stage at the lowest precision.
	perDev := float64(L) / float64(n) * t.GroupMem[nb-1] * 2
	if rng.Intn(2) == 0 {
		perDev = float64(L) / float64(n) * t.GroupMem[0] * (0.8 + rng.Float64())
	}
	leakNaN := rng.Intn(4) == 0
	for d := 0; d < n; d++ {
		t.Capacity = append(t.Capacity, perDev*(0.5+rng.Float64()))
		pre, dec := make([]float64, nb), make([]float64, nb)
		for i := range pre {
			pre[i] = tm(1e-2)
			dec[i] = tm(1e-3)
			if leakNaN && rng.Intn(5) == 0 {
				pre[i] = math.NaN()
			}
			if leakNaN && rng.Intn(5) == 0 {
				dec[i] = math.NaN()
			}
		}
		t.TPre = append(t.TPre, pre)
		t.TDec = append(t.TDec, dec)
		cp, cd := make([]float64, n), make([]float64, n)
		for e := range cp {
			cp[e] = tm(1e-3)
			cd[e] = tm(1e-4)
		}
		t.CommPre = append(t.CommPre, cp)
		t.CommDec = append(t.CommDec, cd)
	}
	return t, rng.Perm(n), quantized
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDPMatchesOracle is the differential check of the structured-DP
// kernel: on seeded random instances the benefit table must equal the
// oracle's cell for cell, and every DP pass — the unconstrained one, the
// ε grid's and random caps, run in sequence on one reused buffer as
// solveStructured does — must return a deep-equal plan and a cost table
// bit-equal to the oracle's in rows 0…n−1 and at (n, L), the only cell of
// row n the kernel computes; the rest of row n must hold infCost.
// Quantized instances make costs tie, which pins the order in which a cell
// meets its candidates, and put stage times exactly on caps. The capped
// passes must between them take some cells from the unconstrained pass,
// so that the comparison covers the kernel's cell reuse.
func TestDPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	reused := 0
	for inst := 0; inst < 400; inst++ {
		tb, order, quantized := randomDPInstance(rng)
		s := tb.Spec
		L := s.layerGroups()
		n := len(order)
		want, err := oracleBuildBenefits(s, L)
		if err != nil {
			t.Fatalf("instance %d: oracle benefits: %v", inst, err)
		}
		bt, err := buildBenefits(s)
		if err != nil {
			t.Fatalf("instance %d: benefits: %v", inst, err)
		}
		if !reflect.DeepEqual(want.pairs, bt.pairs) {
			t.Fatalf("instance %d: pairs %v, oracle %v", inst, bt.pairs, want.pairs)
		}
		for bi := range want.base {
			for l, v := range want.base[bi] {
				if !sameFloat(v, bt.base[bi][l]) {
					t.Fatalf("instance %d: base[%d][%d] = %v, oracle %v", inst, bi, l, bt.base[bi][l], v)
				}
			}
		}
		for pi := range want.prefix {
			for lo := range want.prefix[pi] {
				w, g := want.prefix[pi][lo], bt.prefix[pi][lo]
				if len(w) != len(g) {
					t.Fatalf("instance %d: prefix[%d][%d] has %d cells, oracle %d", inst, pi, lo, len(g), len(w))
				}
				for i := range w {
					if !sameFloat(w[i], g[i]) {
						t.Fatalf("instance %d: prefix[%d][%d][%d] = %v, oracle %v", inst, pi, lo, i, g[i], w[i])
					}
				}
			}
		}

		kmax := L - (n - 1)
		if lim := 3*((L+n-1)/n) + 2; lim < kmax && rng.Intn(2) == 0 {
			kmax = lim
		}
		caps := [][2]float64{{infCost, infCost}}
		if base, _, err := oracleSolveDP(tb, order, want, kmax, infCost, infCost); err == nil && base != nil {
			if ev, err := Evaluate(tb, base); err == nil {
				maxPre, maxDec := maxOf(ev.StagePre), maxOf(ev.StageDec)
				for _, f := range []float64{0.92, 0.7, 0.4, 1} {
					caps = append(caps, [2]float64{f * maxPre, 0.8 * maxDec}, [2]float64{maxPre, f * maxDec})
				}
			}
		}
		for i := 0; i < 3; i++ {
			caps = append(caps, [2]float64{rng.Float64() * 0.05, rng.Float64() * 0.005})
		}
		if quantized {
			// Caps a stage time can equal exactly.
			for _, q := range []float64{0, 1, 2, 4, 8} {
				caps = append(caps, [2]float64{q * tick, infCost}, [2]float64{infCost, q * tick})
			}
		}
		mt := newMixTable(tb, order, bt, kmax)
		buf := newDPBuf(n, L, mt)
		for _, c := range caps {
			wantPlan, wantDP, wantErr := oracleSolveDP(tb, order, want, kmax, c[0], c[1])
			gotPlan, gotErr := solveDP(tb, order, bt, mt, buf, c[0], c[1])
			reused += buf.reused
			checkDPPass(t, fmt.Sprintf("instance %d caps %v", inst, c), buf, n, L, gotPlan, gotErr, wantPlan, wantDP, wantErr)
		}
	}
	if reused == 0 {
		t.Fatal("no capped pass took a cell from the unconstrained pass: the check compares no reused cell")
	}
}

// checkDPPass requires a solveDP pass on buf to match the oracle's: the
// same error, a deep-equal plan, and a cost table bit-equal to the
// oracle's in rows 0…n−1 and at (n, L), the only cell of row n the kernel
// computes; every other cell of row n must still hold infCost.
func checkDPPass(t *testing.T, name string, buf *dpBuf, n, L int, gotPlan *Plan, gotErr error, wantPlan *Plan, wantDP [][]float64, wantErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(wantPlan, gotPlan) {
		t.Fatalf("%s: plan %+v, oracle %+v", name, gotPlan, wantPlan)
	}
	for j := range wantDP {
		for l, v := range wantDP[j] {
			if j == n && l != L {
				v = infCost
			}
			if got := buf.cost[j*(L+1)+l]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: dp[%d][%d] = %v, want %v", name, j, l, got, v)
			}
		}
	}
}

// FuzzDPMatchesOracle runs, on randomDPInstance(seed) and one DP buffer,
// an unconstrained pass and then a pass capped at the fractions fPre and
// fDec of the unconstrained plan's largest stage times (of 0.05 s and
// 0.005 s when it has none), and holds the capped pass to the oracle cell
// for cell (checkDPPass).
func FuzzDPMatchesOracle(f *testing.F) {
	f.Add(int64(1), 0.92, 0.92)
	f.Add(int64(2), 1.0, 0.45)
	f.Add(int64(3), 0.4, 1.0)
	f.Add(int64(4), 0.7, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, fPre, fDec float64) {
		tb, order, _ := randomDPInstance(rand.New(rand.NewSource(seed)))
		s := tb.Spec
		L, n := s.layerGroups(), len(order)
		want, err := oracleBuildBenefits(s, L)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := buildBenefits(s)
		if err != nil {
			t.Fatal(err)
		}
		kmax := L - (n - 1)
		mt := newMixTable(tb, order, bt, kmax)
		buf := newDPBuf(n, L, mt)
		base, err := solveDP(tb, order, bt, mt, buf, infCost, infCost)
		if err != nil {
			t.Fatal(err)
		}
		capPre, capDec := fPre*0.05, fDec*0.005
		if base != nil {
			if ev, err := Evaluate(tb, base); err == nil {
				capPre, capDec = fPre*maxOf(ev.StagePre), fDec*maxOf(ev.StageDec)
			}
		}
		wantPlan, wantDP, wantErr := oracleSolveDP(tb, order, want, kmax, capPre, capDec)
		gotPlan, gotErr := solveDP(tb, order, bt, mt, buf, capPre, capDec)
		checkDPPass(t, fmt.Sprintf("seed %d caps %v, %v", seed, capPre, capDec), buf, n, L, gotPlan, gotErr, wantPlan, wantDP, wantErr)
	})
}

// TestUpgradedSetMatchesOracle: on seeded ω drawn mostly from a few
// values, so that ranges hold tied, +0 and −0 and NaN benefits, upgradedSet
// returns the oracle's index slice for every pair, range and count.
func TestUpgradedSetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	vals := []float64{0, math.Copysign(0, -1), 0.5, 1, math.NaN()}
	var ties, zeros, nans int
	for inst := 0; inst < 100; inst++ {
		L := 1 + rng.Intn(24)
		bits := []int{2, 4, 8}
		omega := indicator.Omega{Bits: bits}
		for l := 0; l < L; l++ {
			row := make([]float64, len(bits))
			for i := range row {
				if row[i] = vals[rng.Intn(len(vals))]; rng.Intn(4) == 0 {
					row[i] = rng.Float64()
				}
			}
			omega.Values = append(omega.Values, row)
		}
		s := &Spec{Cfg: model.Config{Name: "ties", Layers: L}, Bits: bits, Omega: omega}
		bt, err := buildBenefitBase(s)
		if err != nil {
			t.Fatal(err)
		}
		for pi, pr := range bt.pairs {
			wa, wb := bt.omega[pr[0]], bt.omega[pr[1]]
			for lo := 0; lo < L; lo++ {
				seen := map[uint64]bool{}
				var pos, neg bool
				for k := 1; lo+k <= L; k++ {
					switch v := wa[lo+k-1] - wb[lo+k-1]; {
					case math.IsNaN(v):
						nans++
					case v == 0 && math.Signbit(v):
						neg = true
					case v == 0:
						pos = true
					}
					if b := math.Float64bits(wa[lo+k-1] - wb[lo+k-1]); seen[b] {
						ties++
					} else {
						seen[b] = true
					}
					if pos && neg {
						zeros++
					}
					for _, cntB := range []int{k, rng.Intn(k + 1)} {
						want, err := oracleUpgradedSet(s, pi, bt, lo, k, cntB)
						if err != nil {
							t.Fatal(err)
						}
						if got := upgradedSet(bt, pi, lo, k, cntB); !slices.Equal(got, want) {
							t.Fatalf("instance %d pair %d range [%d, %d) count %d: %v, oracle %v", inst, pi, lo, lo+k, cntB, got, want)
						}
					}
				}
			}
		}
	}
	if ties == 0 || zeros == 0 || nans == 0 {
		t.Fatalf("ranges with ties %d, with both zeros %d, with NaN %d: each must be reached", ties, zeros, nans)
	}
}

// TestBenefitsErrorMatchesOracle: an ω indicator missing a candidate bit
// fails both builds with the same error.
func TestBenefitsErrorMatchesOracle(t *testing.T) {
	tb, _, _ := randomDPInstance(rand.New(rand.NewSource(1)))
	s := *tb.Spec
	s.Bits = append(append([]int(nil), s.Bits...), 7)
	_, wantErr := oracleBuildBenefits(&s, s.layerGroups())
	_, gotErr := buildBenefits(&s)
	if wantErr == nil || fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("error %v, oracle %v", gotErr, wantErr)
	}
}
