package obs

import (
	"math"
	"sort"
	"sync"
)

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is an instantaneous value that can move both ways. All methods
// are safe for concurrent use and are no-ops on a nil receiver.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add offsets the value (negative deltas allowed).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += v
	g.mu.Unlock()
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed buckets (ascending upper
// bounds plus an implicit +Inf overflow bucket) and tracks count, sum,
// min, and max, from which Quantile interpolates estimates. All methods
// are safe for concurrent use and are no-ops on a nil receiver.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last = overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample. NaN samples are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observation, or NaN when empty or nil.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the containing bucket, clamped to the observed [min, max]. It
// returns NaN when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		// Bucket edges, clamped to what was actually observed.
		lo := h.min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi <= lo {
			return hi
		}
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return h.max
}

// snapshot returns a consistent copy of the histogram state for export.
func (h *Histogram) snapshot() (counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.count, h.sum
}
