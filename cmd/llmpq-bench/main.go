// Command llmpq-bench regenerates every table and figure of the paper's
// evaluation section on the simulated substrate:
//
//	llmpq-bench            # run everything
//	llmpq-bench -only table4,fig9
//	llmpq-bench -list
//
// Output is aligned text, one block per experiment, in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

type runner struct {
	id  string
	run func() (*experiments.Table, error)
}

func runners() []runner {
	return []runner{
		{"fig1", func() (*experiments.Table, error) { t, _, err := experiments.Fig1(); return t, err }},
		{"fig3", func() (*experiments.Table, error) { t, _, err := experiments.Fig3(); return t, err }},
		{"fig4", func() (*experiments.Table, error) { t, _, err := experiments.Fig4(); return t, err }},
		{"fig5", func() (*experiments.Table, error) { t, _, err := experiments.Fig5(); return t, err }},
		{"table1", func() (*experiments.Table, error) { t, _, err := experiments.Table1(); return t, err }},
		{"table3", func() (*experiments.Table, error) { return experiments.Table3(), nil }},
		{"fig7", func() (*experiments.Table, error) { t, _, err := experiments.Fig7(); return t, err }},
		{"table4", func() (*experiments.Table, error) {
			t, all, err := experiments.Table4()
			return withSpeedup(t, all), err
		}},
		{"table5", func() (*experiments.Table, error) { t, _, err := experiments.Table5(); return t, err }},
		{"table6", func() (*experiments.Table, error) { t, _, err := experiments.Table6(); return t, err }},
		{"table7", func() (*experiments.Table, error) { t, _, err := experiments.Table7(); return t, err }},
		{"table8", func() (*experiments.Table, error) { t, _, err := experiments.Table8(); return t, err }},
		{"fig8", func() (*experiments.Table, error) { t, _, err := experiments.Fig8(); return t, err }},
		{"fig9", func() (*experiments.Table, error) { t, _, err := experiments.Fig9(); return t, err }},
		{"table9", func() (*experiments.Table, error) { return experiments.Table9(), nil }},
		{"table10", func() (*experiments.Table, error) { t, _, err := experiments.Table10(); return t, err }},
		// Extensions the paper describes but does not evaluate (§5, §7).
		{"ext-schemes", func() (*experiments.Table, error) { t, _, err := experiments.ExtSchemes(); return t, err }},
		{"ext-loader", func() (*experiments.Table, error) { t, _, err := experiments.ExtLoader(); return t, err }},
		{"ext-tp", func() (*experiments.Table, error) { t, _, err := experiments.ExtTP(); return t, err }},
		{"ext-online", func() (*experiments.Table, error) { t, _, err := experiments.ExtOnline(); return t, err }},
		{"ext-kv", func() (*experiments.Table, error) { t, _, err := experiments.ExtKVCache(); return t, err }},
		{"ext-buckets", func() (*experiments.Table, error) { t, _, err := experiments.ExtBuckets(); return t, err }},
		{"ext-cost", func() (*experiments.Table, error) { t, _, err := experiments.ExtCost(); return t, err }},
		{"ext-trained", func() (*experiments.Table, error) { t, _, err := experiments.ExtTrained(); return t, err }},
	}
}

func withSpeedup(t *experiments.Table, all []experiments.ServingComparison) *experiments.Table {
	if t == nil {
		return nil
	}
	avg, max, n := experiments.AverageSpeedup(all)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"LLM-PQ vs PipeEdge: avg %.2fx, max %.2fx over %d clusters (paper: up to 2.88x)", avg, max, n))
	return t
}

func main() {
	var (
		only       = flag.String("only", "", "comma-separated experiment ids to run")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		metricsOut = flag.String("metrics-out", "", "run an instrumented demo serve and write its metrics dump here")
		traceOut   = flag.String("trace-out", "", "run an instrumented demo serve and write its Chrome trace JSON here")
		chaosProf  = flag.String("chaos-profile", "", fmt.Sprintf("run the fault-injection demo with this profile (one of %v)", chaos.Profiles()))
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for -chaos-profile; same seed reproduces the fault run byte-for-byte")
	)
	flag.Parse()

	rs := runners()
	if *list {
		for _, r := range rs {
			fmt.Println(r.id)
		}
		return
	}
	if *chaosProf != "" {
		if err := runChaos(*chaosProf, *chaosSeed, *metricsOut, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "llmpq-bench: chaos run failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *metricsOut != "" || *traceOut != "" {
		if err := runObserved(*metricsOut, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "llmpq-bench: observed serve failed: %v\n", err)
			os.Exit(1)
		}
		// The observed demo stands alone unless experiments were also named.
		if *only == "" {
			return
		}
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !hasRunner(rs, id) {
				fmt.Fprintf(os.Stderr, "llmpq-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
		}
	}
	start := time.Now()
	ran := 0
	for _, r := range rs {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		t0 := time.Now()
		tab, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmpq-bench: %s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Print(tab.Render())
		fmt.Printf("(%s in %v)\n\n", r.id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	fmt.Printf("regenerated %d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
}

func hasRunner(rs []runner, id string) bool {
	for _, r := range rs {
		if r.id == id {
			return true
		}
	}
	return false
}
