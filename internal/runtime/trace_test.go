package runtime

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// taskSpans runs the engine with a span recorder attached and returns
// its prefill and decode task spans.
func taskSpans(t *testing.T, eng *Engine) (Stats, []obs.Span) {
	t.Helper()
	eng.Spans = obs.NewSpanRecorder()
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	var tasks []obs.Span
	for _, sp := range eng.Spans.Spans() {
		if sp.Cat == "prefill" || sp.Cat == "decode" {
			tasks = append(tasks, sp)
		}
	}
	return st, tasks
}

func TestTraceRecordsAllTasks(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	eng, err := NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, spans := taskSpans(t, eng)
	if len(spans) == 0 {
		t.Fatal("no trace recorded")
	}
	// Every span is well-formed and within the run.
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	wantTasks := p.NumStages() * (kp + kd*(s.Work.Generate-1))
	if len(spans) != wantTasks {
		t.Errorf("trace has %d spans, want %d", len(spans), wantTasks)
	}
	var prefill, decode int
	busy := make([]float64, p.NumStages())
	for _, sp := range spans {
		if sp.Start < 0 || sp.Dur <= 0 || sp.End() > st.LatencySec+1e-9 {
			t.Fatalf("bad span %+v (latency %.4f)", sp, st.LatencySec)
		}
		if sp.TID < 0 || sp.TID >= p.NumStages() {
			t.Fatalf("span %+v names no stage", sp)
		}
		busy[sp.TID] += sp.Dur
		if sp.Cat == "prefill" {
			prefill++
		} else {
			decode++
		}
	}
	if prefill == 0 || decode == 0 {
		t.Error("trace should contain both phases")
	}
	// Trace-derived busy time must match the engine's accounting.
	for j := range busy {
		if got := busy[j] / st.LatencySec; math.Abs(got-st.Utilization[j]) > 1e-6 {
			t.Errorf("stage %d: trace busy %.4f vs engine %.4f", j, got, st.Utilization[j])
		}
	}
}

func TestRenderGantt(t *testing.T) {
	spans := []obs.Span{
		{Name: "prefill", Cat: "prefill", TID: 0, Start: 0, Dur: 1},
		{Name: "prefill", Cat: "prefill", TID: 1, Start: 1, Dur: 1},
		{Name: "decode", Cat: "decode", TID: 0, Start: 2, Dur: 1},
		{Name: "decode", Cat: "decode", TID: 1, Start: 3, Dur: 1},
		// A transfer is not stage work: it must not fill stage 0's idle cells.
		{Name: "send", Cat: "comm", TID: 0, Start: 1, Dur: 1},
	}
	out, err := RenderGantt(spans, 2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "P") || !strings.Contains(lines[1], "d") {
		t.Errorf("stage 0 row should show both phases: %q", lines[1])
	}
	if !strings.Contains(lines[1], "·") {
		t.Errorf("stage 0 row should show idle cells: %q", lines[1])
	}
	if want := "stage 0 |PP··dd··|"; lines[1] != want {
		t.Errorf("stage 0 row %q, want %q", lines[1], want)
	}
	if _, err := RenderGantt(spans, 0, 4, 8); err == nil {
		t.Error("expected stages error")
	}
	if _, err := RenderGantt([]obs.Span{{Cat: "decode", TID: 5, Dur: 1}}, 2, 4, 8); err == nil {
		t.Error("expected out-of-range span error")
	}
	if _, err := RenderGantt(nil, 2, 0, 8); err == nil {
		t.Error("expected empty-trace error")
	}
}

func TestGanttFromRealRun(t *testing.T) {
	s := rtSpec(2.2, 1.4)
	p := planFor(t, s)
	eng, _ := NewEngine(s, p, nil)
	st, spans := taskSpans(t, eng)
	out, err := RenderGantt(spans, p.NumStages(), st.LatencySec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stage 0") || !strings.Contains(out, "stage 1") {
		t.Errorf("gantt missing stage rows:\n%s", out)
	}
}
