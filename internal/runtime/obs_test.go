package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/assigner"
	"repro/internal/nn"
	"repro/internal/obs"
)

// TestEngineNilRegistryIsNoOp pins the acceptance contract: with no
// observability attached, Run produces byte-identical Stats to an
// instrumented run — instrumentation observes, it never perturbs.
func TestEngineNilRegistryIsNoOp(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)

	plain, err := func() (Stats, error) {
		eng, err := NewEngine(s, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Obs = obs.NewRegistry()
	eng.Spans = obs.NewSpanRecorder()
	instrumented, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	a := fmt.Sprintf("%+v", plain)
	b := fmt.Sprintf("%+v", instrumented)
	if a != b {
		t.Errorf("instrumentation changed Stats:\nnil obs:      %s\ninstrumented: %s", a, b)
	}
	if eng.Spans.Len() == 0 {
		t.Error("instrumented run recorded no spans")
	}
}

func TestEngineMetricsAndSpans(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder()
	eng.Obs = reg
	eng.Spans = rec
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumStages()

	// Per-stage busy histograms must exist for both phases, and their sums
	// must reproduce Stats.StageBusy (the same quantities, two sinks).
	for j := 0; j < n; j++ {
		sl := obs.L("stage", fmt.Sprint(j))
		pre := reg.Histogram(metricStageBusy, obs.TimeBuckets(), sl, obs.L("phase", "prefill"))
		dec := reg.Histogram(metricStageBusy, obs.TimeBuckets(), sl, obs.L("phase", "decode"))
		if pre.Count() == 0 || dec.Count() == 0 {
			t.Errorf("stage %d: busy histograms empty (prefill %d, decode %d)", j, pre.Count(), dec.Count())
		}
		got := pre.Mean()*float64(pre.Count()) + dec.Mean()*float64(dec.Count())
		want := st.StageBusy[j]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("stage %d: busy histogram sum %.9f != StageBusy %.9f", j, got, want)
		}
		if kv := reg.Gauge(metricStageKV, sl).Value(); kv <= 0 {
			t.Errorf("stage %d: KV reservation gauge %.3f", j, kv)
		}
	}
	if oom := reg.Counter(metricOOM).Value(); oom > 0 {
		t.Errorf("OOM counter %.0f on a feasible run", oom)
	}

	// Spans must cover every stage and both phases.
	stages := map[int]bool{}
	cats := map[string]bool{}
	for _, sp := range rec.Spans() {
		stages[sp.TID] = true
		cats[sp.Cat] = true
	}
	for j := 0; j < n; j++ {
		if !stages[j] {
			t.Errorf("no span recorded for stage %d", j)
		}
	}
	if !cats["prefill"] || !cats["decode"] {
		t.Errorf("span categories %v, want prefill and decode", cats)
	}
	if !cats["comm"] {
		t.Errorf("no comm spans recorded across a 2-node cluster")
	}

	// The text dump must carry the per-stage busy families.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		metricStageBusy + `_bucket{phase="prefill",stage="0"`,
		metricStageBusy + `_bucket{phase="decode",stage="1"`,
		metricStageIdle, metricStageComm, metricStageKV,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

func TestEngineOOMCounter(t *testing.T) {
	s := rtSpec(0.4, 0.4)
	p := &assigner.Plan{
		Order: []int{0, 1}, Boundaries: []int{0, 4, 8},
		GroupBits: []int{16, 16, 16, 16, 16, 16, 16, 16},
		Group:     1, PrefillMB: 4, DecodeMB: 4,
	}
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Obs = reg
	if _, err := eng.Run(); err == nil {
		t.Fatal("expected OOM")
	}
	if got := reg.Counter(metricOOM).Value(); got < 1 {
		t.Errorf("OOM counter %.0f, want ≥1", got)
	}
}

// TestPipelineInstrumented runs the real goroutine pipeline with
// observability attached: tokens must match the uninstrumented run, and
// compute plus wait activity must land in metrics and spans. Under
// `make verify-race` this is the data-race gate for concurrent span and
// histogram writes.
func TestPipelineInstrumented(t *testing.T) {
	cfg := nn.Config{Vocab: 96, Hidden: 32, FFN: 128, Layers: 6, Heads: 4, MaxSeq: 40, SensitivitySlope: 1}
	bits := []int{16, 16, 8, 8, 16, 16}
	prompts := [][]int{{3, 14, 15}, {9, 2, 6, 5}, {31}}
	const steps = 8

	gen := func(instrument bool) ([][]int, *obs.Registry, *obs.SpanRecorder) {
		m, err := nn.New(cfg, 21)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(m, []int{0, 2, 4, 6}, bits)
		if err != nil {
			t.Fatal(err)
		}
		var reg *obs.Registry
		var rec *obs.SpanRecorder
		if instrument {
			reg = obs.NewRegistry()
			rec = obs.NewSpanRecorder()
			pl.Instrument(reg, rec)
		}
		out, err := pl.Generate(prompts, steps)
		if err != nil {
			t.Fatal(err)
		}
		return out, reg, rec
	}

	want, _, _ := gen(false)
	got, reg, rec := gen(true)
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("request %d: instrumented length %d vs %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("request %d: instrumentation changed tokens at %d", r, i)
			}
		}
	}

	for j := 0; j < 3; j++ {
		sl := obs.L("stage", fmt.Sprint(j))
		comp := reg.Histogram(metricPipeCompute, obs.TimeBuckets(), sl)
		if comp.Count() == 0 {
			t.Errorf("stage %d: no compute samples", j)
		}
		if reg.Histogram(metricPipeRecv, obs.TimeBuckets(), sl).Count() == 0 {
			t.Errorf("stage %d: no recv-wait samples", j)
		}
		if reg.Histogram(metricPipeSend, obs.TimeBuckets(), sl).Count() == 0 {
			t.Errorf("stage %d: no send-wait samples", j)
		}
	}
	cats := map[string]int{}
	for _, sp := range rec.Spans() {
		cats[sp.Cat]++
	}
	for _, want := range []string{"compute", "recv", "send"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans recorded (got %v)", want, cats)
		}
	}
}
