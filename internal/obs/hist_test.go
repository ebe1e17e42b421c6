package obs

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core/floats"
)

// TestHistogramEdgeCases is the table-driven edge-case suite: empty,
// single sample, exact-bound samples, overflow bucket, NaN, and quantile
// clamping behaviour.
func TestHistogramEdgeCases(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name    string
		samples []float64
		count   uint64
		sum     float64
		q50     float64 // want NaN when empty
		q0      float64
		q1      float64
	}{
		{
			name:    "empty",
			samples: nil,
			count:   0, sum: 0,
			q50: math.NaN(), q0: math.NaN(), q1: math.NaN(),
		},
		{
			name:    "single sample",
			samples: []float64{5},
			count:   1, sum: 5,
			// Every quantile of a single observation is that observation:
			// the bucket is clamped to [min, max] = [5, 5].
			q50: 5, q0: 5, q1: 5,
		},
		{
			name:    "sample on exact bucket bound",
			samples: []float64{1, 1, 1, 1},
			count:   4, sum: 4,
			q50: 1, q0: 1, q1: 1,
		},
		{
			name:    "overflow bucket",
			samples: []float64{500, 1000},
			count:   2, sum: 1500,
			// Both land past the last bound; interpolation happens in
			// [max(100, min), max] = [500, 1000].
			q50: 750, q0: 500, q1: 1000,
		},
		{
			name:    "nan dropped",
			samples: []float64{math.NaN(), 2},
			count:   1, sum: 2,
			q50: 2, q0: 2, q1: 2,
		},
		{
			name:    "uniform spread",
			samples: []float64{0.5, 5, 50, 500},
			count:   4, sum: 555.5,
			// target=2 falls on the cumulative edge of bucket (1,10]:
			// interpolation yields its upper edge.
			q50: 10, q0: 0.5, q1: 500,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(bounds)
			for _, v := range tc.samples {
				h.Observe(v)
			}
			if h.Count() != tc.count {
				t.Errorf("count = %d, want %d", h.Count(), tc.count)
			}
			if _, _, sum := h.snapshot(); !floats.EqTol(sum, tc.sum, 1e-9) {
				t.Errorf("sum = %g, want %g", sum, tc.sum)
			}
			checkQ := func(q, want float64) {
				got := h.Quantile(q)
				if math.IsNaN(want) {
					if !math.IsNaN(got) {
						t.Errorf("quantile(%g) = %g, want NaN", q, got)
					}
					return
				}
				if !floats.EqTol(got, want, 1e-9) {
					t.Errorf("quantile(%g) = %g, want %g", q, got, want)
				}
			}
			checkQ(0.5, tc.q50)
			checkQ(0, tc.q0)
			checkQ(1, tc.q1)
		})
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := newHistogram(ExpBuckets(0.001, 2, 12))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 250)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone: q=%.2f gives %g after %g", q, v, prev)
		}
		prev = v
	}
	// The p50 of a uniform 0.004..4 sample should land near 2.
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 3 {
		t.Errorf("p50 = %g, want ≈2", p50)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines; run under -race this is the data-race gate for the
// instrumented pipeline hot path.
func TestHistogramConcurrentWriters(t *testing.T) {
	h := newHistogram([]float64{0.25, 0.5, 0.75})
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) / float64(workers*perWorker))
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	counts, count, _ := h.snapshot()
	var tot uint64
	for _, c := range counts {
		tot += c
	}
	if tot != count {
		t.Errorf("bucket counts sum to %d, count is %d", tot, count)
	}
}
