package assigner

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hardware"
	"repro/internal/obs"
)

// SolveCache memoizes the spec-derived artifacts Optimize otherwise
// recomputes on every call, so a replan after a fleet change re-solves
// only what the change invalidated (DESIGN.md §13). Two layers:
//
//   - combination outcomes: the full (plan, evaluation) result of one
//     (device order, prefill micro-batch) inner solve. A repeated solve
//     of an unchanged spec — the failover retry, the autoscaler probing
//     the same fleet shape twice, the restore after a heal — returns
//     without touching the DP.
//   - benefit tables: the sorted ω-savings prefix sums of buildBenefits,
//     which depend only on (Bits, Omega) — fleet changes never invalidate
//     them. Only MethodDP looks them up.
//
// Cost tables (BuildTables) are not cached: they take microseconds, less
// than hashing their keys would.
//
// Every key is a content hash of exactly the spec fields that feed the
// cached computation (plus the timer's CacheKey identity), so a cache can
// be shared across arbitrary specs: a lookup either misses or returns a
// value that is bit-identical to recomputing it. Plans are therefore
// byte-identical with and without a cache. Safe for concurrent use by
// any number of Optimize calls.
type SolveCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64

	// Export bookkeeping: counters already flushed to a registry.
	expMu              sync.Mutex
	expHits, expMisses int64
}

// cacheEntry is a singleflight slot: the goroutine that inserts the entry
// computes it under once; concurrent lookups of the same key wait and
// share the result. Exactly one miss is ever counted per key, so the
// hit/miss totals of a deterministic workload are deterministic at any
// parallelism.
type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewSolveCache returns an empty cache ready for concurrent use.
func NewSolveCache() *SolveCache {
	return &SolveCache{entries: map[string]*cacheEntry{}}
}

// CacheStats is a point-in-time snapshot of lookup counters.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Stats returns cumulative lookup counters.
func (c *SolveCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Export flushes the lookup counters into reg as
// llmpq_solver_cache_{hits,misses}_total, adding only the delta since the
// previous Export so repeated flushes never double-count. The counters
// are deterministic for a deterministic workload (see cacheEntry), so
// they are safe on the byte-diffed sim registry. Nil cache or registry is
// a no-op.
func (c *SolveCache) Export(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.expMu.Lock()
	defer c.expMu.Unlock()
	h, m := c.hits.Load(), c.misses.Load()
	if d := h - c.expHits; d > 0 {
		reg.Counter(metricSolverCacheHits).Add(float64(d))
	}
	if d := m - c.expMisses; d > 0 {
		reg.Counter(metricSolverCacheMisses).Add(float64(d))
	}
	c.expHits, c.expMisses = h, m
}

// do is the singleflight get-or-compute. Errors are cached too: the
// computation is a pure function of the key, so retrying cannot succeed.
func (c *SolveCache) do(key string, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.val, e.err = fn() })
	return e.val, e.err
}

// benefits memoizes one benefit table (shared, read-only).
func (c *SolveCache) benefits(key string, fn func() (*benefitTable, error)) (*benefitTable, error) {
	v, err := c.do(key, func() (any, error) { return fn() })
	if err != nil {
		return nil, err
	}
	return v.(*benefitTable), nil
}

// comboResult is a cached inner-solve outcome. plan == nil means the
// combination is infeasible (solver errors are cached through do's err).
type comboResult struct {
	plan *Plan
	ev   *Evaluation
}

// combo memoizes one (order, micro-batch) inner solve. Plans and
// evaluations are deep-copied on the way out: callers mutate them
// (Finalize stamps the objective into the plan).
func (c *SolveCache) combo(key string, fn func() (*Plan, *Evaluation, error)) (*Plan, *Evaluation, error) {
	v, err := c.do(key, func() (any, error) {
		plan, ev, err := fn()
		if err != nil {
			return nil, err
		}
		return comboResult{plan: plan, ev: ev}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	r := v.(comboResult)
	return clonePlan(r.plan), r.ev.clone(), nil
}

// clonePlan deep-copies a plan; nil stays nil.
func clonePlan(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Order = append([]int(nil), p.Order...)
	q.Boundaries = append([]int(nil), p.Boundaries...)
	q.GroupBits = append([]int(nil), p.GroupBits...)
	return &q
}

// clone deep-copies an evaluation; nil stays nil.
func (ev *Evaluation) clone() *Evaluation {
	if ev == nil {
		return nil
	}
	out := *ev
	out.StagePre = append([]float64(nil), ev.StagePre...)
	out.StageDec = append([]float64(nil), ev.StageDec...)
	out.StageMemGB = append([]float64(nil), ev.StageMemGB...)
	out.MemUtil = append([]float64(nil), ev.MemUtil...)
	return &out
}

// CacheKeyer is implemented by LayerTimers whose timings are a pure
// function of a stable identity string. Timers that do not implement it
// (e.g. FittedTimer, whose model content has no cheap identity) bypass
// the SolveCache entirely — correctness over reuse.
type CacheKeyer interface {
	CacheKey() string
}

// CacheKey identifies the analytic roofline timer; it has no tunable
// state, so the name alone is the identity.
func (ProfilerTimer) CacheKey() string { return "profiler" }

// timerCacheKey resolves a timer's cache identity, reporting whether the
// timer is cacheable at all.
func timerCacheKey(t LayerTimer) (string, bool) {
	if ck, ok := t.(CacheKeyer); ok {
		return ck.CacheKey(), true
	}
	return "", false
}

// hasher wraps FNV-1a 64 with length-framed writes so that concatenated
// fields cannot alias ("ab","c" vs "a","bc").
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (x *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		x.buf[i] = byte(v >> (8 * i))
	}
	x.h.Write(x.buf[:])
}

func (x *hasher) i64(v int64)   { x.u64(uint64(v)) }
func (x *hasher) f64(v float64) { x.u64(math.Float64bits(v)) }
func (x *hasher) sum() string   { return fmt.Sprintf("%016x", x.h.Sum64()) }

func (x *hasher) boolean(v bool) {
	if v {
		x.u64(1)
	} else {
		x.u64(0)
	}
}

func (x *hasher) str(s string) {
	x.i64(int64(len(s)))
	x.h.Write([]byte(s))
}

func (x *hasher) ints(vs []int) {
	x.i64(int64(len(vs)))
	for _, v := range vs {
		x.i64(int64(v))
	}
}

// effMap hashes a bitwidth-keyed efficiency map in sorted key order.
func (x *hasher) effMap(m map[int]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	x.i64(int64(len(keys)))
	for _, k := range keys {
		x.i64(int64(k))
		x.f64(m[k])
	}
}

// hashGPU folds in every GPU field that can influence layer timings or
// capacities. Keying by content rather than name means a renamed or
// re-binned GPU type can never alias a stale combination.
func (x *hasher) hashGPU(g hardware.GPU) {
	x.str(g.Name)
	x.f64(g.MemoryGB)
	x.f64(g.FP16TFLOPS)
	x.f64(g.BandwidthGBs)
	x.f64(g.LaunchOverheadUS)
	x.f64(g.HourlyUSD)
	x.effMap(g.ComputeEff)
	x.effMap(g.MemEff)
}

// benefitsKey identifies a benefit table: it depends only on the
// candidate bits and the (grouped) ω indicator, never on the fleet, so
// device losses keep hitting it. The table covers every range of the
// layer groups (see benefitsFor), so no per-stage bound is part of the key.
func (s *Spec) benefitsKey() string {
	x := newHasher()
	x.ints(s.Bits)
	x.ints(s.Omega.Bits)
	x.i64(int64(len(s.Omega.Values)))
	for _, row := range s.Omega.Values {
		x.i64(int64(len(row)))
		for _, v := range row {
			x.f64(v)
		}
	}
	x.i64(int64(s.layerGroups()))
	return x.sum()
}

// comboBaseKey is the shared prefix of every combination key for one
// Optimize call: everything solveInner's outcome depends on except the
// (order, prefill micro-batch) pair itself. Parallelism, Obs and Cache
// are deliberately excluded — outcomes are independent of them (the
// byte-identity guarantee), so solves may share entries across those
// settings. The cluster is hashed by device content in index order;
// cluster *names* (e.g. the "-degraded" suffix) don't affect plans.
func (s *Spec) comboBaseKey(timerKey string) string {
	x := newHasher()
	x.str(timerKey)
	// Model shape, workload, candidate bits, KV precision and grouping:
	// the fields every timer query depends on.
	x.str(s.Cfg.Name)
	x.str(string(s.Cfg.Family))
	x.i64(int64(s.Cfg.Hidden))
	x.i64(int64(s.Cfg.FFN))
	x.i64(int64(s.Cfg.Layers))
	x.i64(int64(s.Cfg.Heads))
	x.i64(int64(s.Cfg.VocabSize))
	x.i64(int64(s.Cfg.MaxPosEmb))
	x.boolean(s.Cfg.TiedEmbed)
	x.i64(int64(s.Work.GlobalBatch))
	x.i64(int64(s.Work.Prompt))
	x.i64(int64(s.Work.Generate))
	x.ints(s.Bits)
	x.i64(int64(s.kvBits()))
	x.i64(int64(s.groupSize()))
	x.i64(int64(len(s.Omega.Values)))
	for _, row := range s.Omega.Values {
		x.i64(int64(len(row)))
		for _, v := range row {
			x.f64(v)
		}
	}
	x.ints(s.Omega.Bits)
	x.f64(s.Theta)
	x.i64(int64(s.Method))
	x.i64(int64(s.TimeLimit))
	x.i64(int64(len(s.Cluster.Devices)))
	for _, d := range s.Cluster.Devices {
		x.hashGPU(d.GPU)
		x.i64(int64(d.Node))
	}
	x.f64(s.Cluster.InterNode.BandwidthGBs)
	x.f64(s.Cluster.InterNode.LatencyUS)
	return x.sum()
}

// comboKey completes a combination key for one (micro-batch, order).
func comboKey(base string, prefillMB int, order []int) string {
	x := newHasher()
	x.str(base)
	x.i64(int64(prefillMB))
	x.ints(order)
	return "combo|" + x.sum()
}
