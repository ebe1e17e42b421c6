package main

import (
	"fmt"
	"os"

	"repro/internal/assigner"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// demoSpec is the small heterogeneous workload both demos plan: opt-13b
// on one T4 and one V100.
func demoSpec() (*assigner.Spec, error) {
	return core.BuildSpec(core.Request{
		ModelName:     "opt-13b",
		DeviceNames:   []string{"T4", "V100"},
		DeviceNumbers: []int{1, 1},
		Interconnect:  "eth800",
		GlobalBatch:   8,
		PromptLen:     128,
		Generate:      16,
		Theta:         0.1,
		Group:         4,
		Method:        assigner.MethodDP,
	})
}

// runObserved serves one small offline workload end to end — plan with the
// assigner, execute on the simulated engine — with full observability
// attached, then writes the requested artifacts: a Prometheus-style text
// dump (-metrics-out) and a Chrome trace_event JSON (-trace-out) loadable
// in chrome://tracing or Perfetto. The trace is re-parsed after writing so
// a corrupt artifact fails the run instead of failing the viewer later.
func runObserved(metricsOut, traceOut string) error {
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder()

	spec, err := demoSpec()
	if err != nil {
		return err
	}
	spec.Obs = reg
	res, err := assigner.Optimize(spec, nil)
	if err != nil {
		return err
	}
	eng, err := runtime.NewEngine(spec, res.Plan, nil)
	if err != nil {
		return err
	}
	eng.Obs = reg
	eng.Spans = rec
	st, err := eng.Run()
	if err != nil {
		return err
	}
	fmt.Printf("observed serve: %s on %s — latency %.2f s, throughput %.2f token/s, %d spans\n",
		spec.Cfg.Name, spec.Cluster.Name, st.LatencySec, st.Throughput, rec.Len())

	if err := writeMetrics(reg, metricsOut); err != nil {
		return err
	}
	if traceOut != "" {
		if err := obs.WriteArtifact(traceOut, rec.WriteChromeTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		// Self-validate: the artifact must round-trip as trace_event JSON
		// and carry spans from multiple stages and both phases.
		rd, err := os.Open(traceOut)
		if err != nil {
			return err
		}
		spans, perr := obs.ParseChromeTrace(rd)
		if cerr := rd.Close(); perr == nil {
			perr = cerr
		}
		if perr != nil {
			return fmt.Errorf("trace %s does not parse: %w", traceOut, perr)
		}
		stages := map[int]bool{}
		cats := map[string]bool{}
		for _, sp := range spans {
			stages[sp.TID] = true
			cats[sp.Cat] = true
		}
		if len(stages) < 2 || !cats["prefill"] || !cats["decode"] {
			return fmt.Errorf("trace %s incomplete: %d stage rows, categories %v",
				traceOut, len(stages), cats)
		}
		fmt.Printf("chrome trace: %s (%d events, %d stage rows)\n", traceOut, len(spans), len(stages))
	}
	return nil
}
