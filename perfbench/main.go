// Command perfbench is the repository's benchmark. One invocation runs
// one named workload in a fresh process, checks the program's outputs,
// and prints every metric by name with its unit as the last line of
// standard output:
//
//	perfbench --workload plan-failover --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same workload twice, untraced and then traced, and prints the
// per-layer metrics computed from the spans the benchmark records around
// its calls into each layer; the spans are also written as a Chrome
// trace. README.md lists every metric and the layer it belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "nominal length of the timed section; sets the fixed operation count")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for journals and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, dir: *out}
	res, err := execute(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	env := hostInfo(*out)
	env["workload"] = *name
	env["seed"] = fmt.Sprint(*seed)
	if b, err := json.Marshal(env); err == nil {
		fmt.Fprintf(stdout, "env %s\n", b)
	}
	for _, msg := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, msg)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostInfo records where the numbers came from.
func hostInfo(dir string) map[string]string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return map[string]string{
		"host":       host,
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"numcpu":     fmt.Sprint(runtime.NumCPU()),
		"journal_fs": fsType(dir),
	}
}

// errCheck marks an output check that failed; the operation counts as
// failed and the command exits non-zero.
var errCheck = errors.New("output check failed")
