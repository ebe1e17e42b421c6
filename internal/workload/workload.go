// Package workload generates the ShareGPT-style prompt-length
// distribution used to motivate phase-aware planning (§2.1: "the prompt
// length varies substantially").
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ShareGPTLengths samples n prompt lengths from a heavy-tailed mixture
// calibrated to the ShareGPT conversation statistics the paper samples:
// a large short-prompt mode (<128 tokens) plus a long tail out to the
// context limit.
func ShareGPTLengths(n int, maxLen int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		var l float64
		if rng.Float64() < 0.55 {
			// Short conversational turns: lognormal around ~40 tokens.
			l = math.Exp(rng.NormFloat64()*0.9 + 3.7)
		} else {
			// Long context-carrying prompts: lognormal around ~450 tokens.
			l = math.Exp(rng.NormFloat64()*0.8 + 6.1)
		}
		li := int(l)
		if li < 1 {
			li = 1
		}
		if li > maxLen {
			li = maxLen
		}
		out[i] = li
	}
	return out
}

// LengthStats summarizes a sample of prompt lengths.
type LengthStats struct {
	Mean       float64
	P50        int
	P90        int
	P99        int
	ShortShare float64 // fraction under 128 tokens (the paper's cut)
}

// Summarize computes distribution statistics.
func Summarize(lengths []int) (LengthStats, error) {
	if len(lengths) == 0 {
		return LengthStats{}, fmt.Errorf("workload: empty sample")
	}
	sorted := append([]int(nil), lengths...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var sum float64
	short := 0
	for _, l := range lengths {
		sum += float64(l)
		if l < 128 {
			short++
		}
	}
	pick := func(q float64) int {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return LengthStats{
		Mean:       sum / float64(len(lengths)),
		P50:        pick(0.50),
		P90:        pick(0.90),
		P99:        pick(0.99),
		ShortShare: float64(short) / float64(len(lengths)),
	}, nil
}
