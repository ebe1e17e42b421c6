package runtime

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
)

// RenderGantt draws the per-stage execution timeline as ASCII: 'P' marks
// prefill work, 'd' decode work, '·' idle. One row per stage, `width`
// character buckets across the run — the quickest way to SEE pipeline
// bubbles and stragglers. spans are what Engine.Spans recorded: the
// prefill and decode task spans are drawn on their stage's row (TID),
// and every other span (inter-stage transfers) is skipped.
func RenderGantt(spans []obs.Span, stages int, horizon float64, width int) (string, error) {
	if stages <= 0 || width <= 0 {
		return "", fmt.Errorf("runtime: need stages>0 and width>0")
	}
	var tasks []obs.Span
	for _, s := range spans {
		if s.Cat == phaseName(true) || s.Cat == phaseName(false) {
			tasks = append(tasks, s)
		}
	}
	if horizon <= 0 {
		for _, s := range tasks {
			if s.End() > horizon {
				horizon = s.End()
			}
		}
	}
	if horizon <= 0 {
		return "", fmt.Errorf("runtime: empty trace")
	}
	grid := make([][]rune, stages)
	for i := range grid {
		grid[i] = []rune(strings.Repeat("·", width))
	}
	for _, s := range tasks {
		if s.TID < 0 || s.TID >= stages {
			return "", fmt.Errorf("runtime: span stage %d out of range", s.TID)
		}
		lo := int(s.Start / horizon * float64(width))
		hi := int(math.Ceil(s.End() / horizon * float64(width)))
		if hi > width {
			hi = width
		}
		if lo >= width {
			lo = width - 1
		}
		ch := 'd'
		if s.Cat == phaseName(true) {
			ch = 'P'
		}
		for x := lo; x < hi; x++ {
			grid[s.TID][x] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time → %.2fs (each cell ≈ %.3fs)\n", horizon, horizon/float64(width))
	for j := 0; j < stages; j++ {
		fmt.Fprintf(&b, "stage %d |%s|\n", j, string(grid[j]))
	}
	return b.String(), nil
}
