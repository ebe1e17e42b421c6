// Package assigner implements LLM-PQ's offline assigner (paper §4): the
// joint optimizer that decides, for a given model, heterogeneous cluster,
// and offline workload,
//
//   - the pipeline device ordering,
//   - the contiguous layer partition across devices,
//   - the per-layer quantization bitwidth, and
//   - the prefill/decode micro-batch sizes,
//
// minimizing end-to-end batch latency plus θ-weighted quality degradation
// (the variance indicator ω), subject to per-device memory constraints.
//
// Solvers provided (paper §4.3):
//
//   - MethodILP: the exact MILP of eqs (4)–(16), solved with the pure-Go
//     branch-and-bound in internal/ilp. Practical for grouped instances.
//   - MethodDP: an exact structured dynamic program exploiting the fact
//     that all decoder layers share identical per-bit cost; stages are
//     restricted to at most two distinct precisions (the mixtures the
//     paper itself advocates, e.g. INT8+FP16), verified against the MILP.
//   - MethodHeuristic: adabits initialization + Algorithm 2 bitwidth
//     transfer.
//   - MethodAdabits: the pure adaptive-quantization baseline of §6.9.
package assigner

import (
	"fmt"
	"time"

	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
	"repro/internal/obs"
)

// Workload is the offline serving task: prompts padded to Prompt tokens,
// exactly Generate tokens produced per request, GlobalBatch requests.
type Workload struct {
	GlobalBatch int
	Prompt      int
	Generate    int
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.GlobalBatch <= 0 || w.Prompt <= 0 || w.Generate <= 0 {
		return fmt.Errorf("assigner: workload fields must be positive: %+v", w)
	}
	return nil
}

// Method selects the inner solver.
type Method int

const (
	// MethodDP is the structured exact solver (default).
	MethodDP Method = iota
	// MethodILP solves the full MILP of eqs (4)-(16).
	MethodILP
	// MethodHeuristic is adabits + Algorithm 2 bitwidth transfer.
	MethodHeuristic
	// MethodAdabits is pure adaptive quantization (no latency objective),
	// the §6.9 comparison point.
	MethodAdabits
)

func (m Method) String() string {
	switch m {
	case MethodDP:
		return "dp"
	case MethodILP:
		return "ilp"
	case MethodHeuristic:
		return "heuristic"
	case MethodAdabits:
		return "adabits"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Spec is the full optimizer input (the paper's llmpq-algo arguments).
type Spec struct {
	Cfg     model.Config
	Cluster hardware.Cluster
	Work    Workload
	Bits    []int           // candidate precisions, e.g. {3,4,8,16}
	Omega   indicator.Omega // per-(layer,bit) quality perturbation
	Theta   float64         // quality scalar θ
	Group   int             // layer grouping (Optimization #2); 0/1 = none
	Method  Method
	// TimeLimit bounds the ILP solve (0 = none); the paper uses 60 s.
	TimeLimit time.Duration
	// KVBits is the KV-cache precision: 0/16 = FP16 (the paper's runtime),
	// 8 = INT8 KV quantization (extension; near-lossless, halves KV memory
	// and decode KV traffic).
	KVBits int
	// PrefillMicroBatches overrides the candidate prefill micro-batch set
	// (Optimization #1 enumerates within [1, ξ]); nil = powers of two.
	PrefillMicroBatches []int
	// Parallelism bounds the worker goroutines Optimize spreads the
	// (prefill micro-batch × device order) search over. 0 picks
	// runtime.NumCPU(); 1 forces a serial scan. The result is
	// byte-identical at every setting: see the deterministic reduction in
	// Optimize.
	Parallelism int
	// Obs, when non-nil, receives solver metrics: time-to-plan, (order,
	// micro-batch) combinations, DP cells (stage mixtures scanned), ILP
	// nodes and simplex pivots (DESIGN.md §8). Nil keeps the solve uninstrumented.
	Obs *obs.Registry
	// Cache, when non-nil, memoizes spec-derived solver artifacts (timing
	// rows, benefit tables, combination outcomes) across Optimize calls,
	// keyed by content hashes of the fields that feed each computation
	// (DESIGN.md §13). A replan after a fleet change then recomputes only
	// what the change invalidated. Plans are byte-identical with or
	// without a cache; the cache may be shared across specs and
	// concurrent solves. Timers that don't implement CacheKeyer bypass it.
	Cache *SolveCache
}

// MaxDeviceTypes bounds the distinct GPU types Validate accepts.
// CandidateOrders enumerates one device ordering per permutation of the
// same-type blocks, so the scan grows factorially in the type count:
// 6 types already mean 720 orderings per micro-batch candidate, and 8
// would mean 40320 — a solve that looks hung. Real heterogeneous
// deployments mix a handful of GPU generations; reject anything beyond
// that with a clear error instead of disappearing into permutations.
const MaxDeviceTypes = 6

// Validate checks the spec.
func (s *Spec) Validate() error {
	if err := s.Work.Validate(); err != nil {
		return err
	}
	if len(s.Bits) == 0 {
		return fmt.Errorf("assigner: no candidate bitwidths")
	}
	if s.Omega.Layers() != s.layerGroups() {
		return fmt.Errorf("assigner: omega covers %d groups, model has %d (L=%d, group=%d)",
			s.Omega.Layers(), s.layerGroups(), s.Cfg.Layers, s.groupSize())
	}
	if s.Cluster.NumDevices() == 0 {
		return fmt.Errorf("assigner: empty cluster")
	}
	if s.Cluster.NumDevices() > s.layerGroups() {
		return fmt.Errorf("assigner: %d devices but only %d layer groups", s.Cluster.NumDevices(), s.layerGroups())
	}
	types := map[string]bool{}
	for _, d := range s.Cluster.Devices {
		types[d.GPU.Name] = true
	}
	if len(types) > MaxDeviceTypes {
		return fmt.Errorf("assigner: cluster %s mixes %d GPU types, max %d (the order scan enumerates one ordering per type permutation — %d types would mean a factorial blow-up)",
			s.Cluster.Name, len(types), MaxDeviceTypes, len(types))
	}
	if s.Theta < 0 {
		return fmt.Errorf("assigner: negative theta %g", s.Theta)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("assigner: negative parallelism %d", s.Parallelism)
	}
	for i, mb := range s.PrefillMicroBatches {
		if mb <= 0 {
			return fmt.Errorf("assigner: prefill micro-batch candidate %d is %d, must be positive", i, mb)
		}
		if mb > s.Work.GlobalBatch {
			return fmt.Errorf("assigner: prefill micro-batch candidate %d is %d, exceeds global batch %d", i, mb, s.Work.GlobalBatch)
		}
	}
	switch s.KVBits {
	case 0, 8, 16:
	default:
		return fmt.Errorf("assigner: unsupported KV precision %d (want 8 or 16)", s.KVBits)
	}
	return nil
}

func (s *Spec) groupSize() int {
	if s.Group <= 1 {
		return 1
	}
	return s.Group
}

// layerGroups returns the number of planning units after grouping.
func (s *Spec) layerGroups() int {
	g := s.groupSize()
	return (s.Cfg.Layers + g - 1) / g
}

// kvBits returns the effective KV-cache precision.
func (s *Spec) kvBits() int {
	if s.KVBits == 0 {
		return 16
	}
	return s.KVBits
}

// memoryReserve is the fraction of device memory withheld from the
// planner (allocator slack).
const memoryReserve = 0.05

// decodeMicroBatch follows Optimization #1: the global batch is evenly
// partitioned across pipeline stages during decode.
func (s *Spec) decodeMicroBatch() int {
	n := s.Cluster.NumDevices()
	mb := (s.Work.GlobalBatch + n - 1) / n
	if mb < 1 {
		mb = 1
	}
	return mb
}

// prefillCandidates returns the micro-batch sizes to enumerate.
func (s *Spec) prefillCandidates() []int {
	if len(s.PrefillMicroBatches) > 0 {
		return s.PrefillMicroBatches
	}
	if s.Work.GlobalBatch <= 0 {
		// Validate rejects such workloads; empty rather than a panic on
		// out[len(out)-1] for callers that probe before validating.
		return nil
	}
	var out []int
	for mb := 1; mb <= s.Work.GlobalBatch; mb *= 2 {
		out = append(out, mb)
	}
	if last := out[len(out)-1]; last != s.Work.GlobalBatch {
		out = append(out, s.Work.GlobalBatch)
	}
	return out
}

// Plan is the assigner's output: a complete inference execution plan.
type Plan struct {
	// Order lists device IDs in pipeline order.
	Order []int
	// Boundaries has NumStages+1 entries; stage j owns layer groups
	// [Boundaries[j], Boundaries[j+1]).
	Boundaries []int
	// GroupBits is the bitwidth per layer group (len = layerGroups).
	GroupBits []int
	// Group is the group size the plan was computed with.
	Group int
	// PrefillMB / DecodeMB are the phase micro-batch sizes.
	PrefillMB int
	DecodeMB  int

	// Objective and its decomposition, from Evaluate.
	Objective  float64
	LatencySec float64
	OmegaSum   float64
}

// NumStages returns the pipeline depth.
func (p *Plan) NumStages() int { return len(p.Order) }

// StageRange returns the layer-group range of stage j.
func (p *Plan) StageRange(j int) (lo, hi int, err error) {
	if j < 0 || j >= p.NumStages() {
		return 0, 0, fmt.Errorf("assigner: stage %d out of range [0,%d)", j, p.NumStages())
	}
	return p.Boundaries[j], p.Boundaries[j+1], nil
}

// LayerBits expands the per-group bits to per-layer bits for a model with
// L layers.
func (p *Plan) LayerBits(totalLayers int) []int {
	bits := make([]int, totalLayers)
	for i := range bits {
		bits[i] = p.LayerBit(i)
	}
	return bits
}

// LayerBit is the bitwidth of layer i: its group's, and the last group's
// for a layer past the last group.
func (p *Plan) LayerBit(i int) int {
	return p.GroupBits[min(i/max(p.Group, 1), len(p.GroupBits)-1)]
}

// StageLayers returns the layer range [lo, hi) of stage j for a model with
// totalLayers layers.
func (p *Plan) StageLayers(j, totalLayers int) (lo, hi int) {
	g := max(p.Group, 1)
	return p.Boundaries[j] * g, min(p.Boundaries[j+1]*g, totalLayers)
}

// StageLayerBits returns per-stage slices of per-layer bits.
func (p *Plan) StageLayerBits(totalLayers int) [][]int {
	all := p.LayerBits(totalLayers)
	out := make([][]int, p.NumStages())
	for j := range out {
		lo, hi := p.StageLayers(j, totalLayers)
		out[j] = all[lo:hi]
	}
	return out
}

// Validate checks structural consistency of a plan against a spec.
func (p *Plan) Validate(s *Spec) error {
	n := s.Cluster.NumDevices()
	if len(p.Order) != n {
		return fmt.Errorf("assigner: plan orders %d devices, cluster has %d", len(p.Order), n)
	}
	seen := make(map[int]bool)
	for _, id := range p.Order {
		if id < 0 || id >= n || seen[id] {
			return fmt.Errorf("assigner: invalid device order %v", p.Order)
		}
		seen[id] = true
	}
	if len(p.Boundaries) != n+1 || p.Boundaries[0] != 0 || p.Boundaries[n] != s.layerGroups() {
		return fmt.Errorf("assigner: bad boundaries %v for %d groups", p.Boundaries, s.layerGroups())
	}
	for j := 0; j < n; j++ {
		if p.Boundaries[j+1] <= p.Boundaries[j] {
			return fmt.Errorf("assigner: empty stage %d in boundaries %v", j, p.Boundaries)
		}
	}
	if len(p.GroupBits) != s.layerGroups() {
		return fmt.Errorf("assigner: %d group bits for %d groups", len(p.GroupBits), s.layerGroups())
	}
	valid := make(map[int]bool)
	for _, b := range s.Bits {
		valid[b] = true
	}
	for i, b := range p.GroupBits {
		if !valid[b] {
			return fmt.Errorf("assigner: group %d has bitwidth %d not in %v", i, b, s.Bits)
		}
	}
	if p.PrefillMB <= 0 || p.DecodeMB <= 0 {
		return fmt.Errorf("assigner: nonpositive micro-batch sizes %d/%d", p.PrefillMB, p.DecodeMB)
	}
	return nil
}
