package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exact lists the metrics that are pure functions of the seed and the
// operation count: simulated results and counts.
var exact = map[string]bool{
	"sim_tokens_per_s":                true,
	"success_ratio":                   true,
	"assigner.combinations_per_solve": true,
	"assigner.dp_cells_per_solve":     true,
	"assigner.cache_hit_ratio":        true,
	"runtime.events_per_run":          true,
	"online.steps_per_replay":         true,
	"online.batch_mean":               true,
	"online.kv_occupancy_mean":        true,
	"online.queue_wait_s_p95":         true,
	"online.sim_latency_s_p95":        true,
	"online.sim_slo_ratio":            true,
	"online.downshifts":               true,
	"online.upshifts":                 true,
	"online.shed":                     true,
	"dist.stage_calls_per_job":        true,
	"dist.frames_per_call":            true,
	"journal.records_per_job":         true,
}

// inexact lists the exceptions on one workload: serve-chat's simulation
// batches requests by wall-clock arrival.
var inexact = map[string]string{"sim_tokens_per_s": "serve-chat"}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runOnce runs one short workload and returns its result line.
func runOnce(t *testing.T, name string, trace string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// TestWorkloadsShort runs every workload twice untraced and twice traced
// with one seed: each metric of BENCHMARK.json is printed with its unit,
// end-to-end metrics are never 0, and the exact metrics repeat.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			for _, pass := range []struct {
				trace   string
				metrics []struct {
					Name string `json:"name"`
					Unit string `json:"unit"`
				}
			}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
				first, second := runOnce(t, wl.Name, pass.trace), runOnce(t, wl.Name, pass.trace)
				if len(first.Metrics) != len(pass.metrics) {
					t.Errorf("--trace %s printed %d metrics, BENCHMARK.json declares %d", pass.trace, len(first.Metrics), len(pass.metrics))
				}
				for _, m := range pass.metrics {
					got, ok := first.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case pass.trace == "0" && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					if exact[m.Name] && inexact[m.Name] != wl.Name && got.Value != second.Metrics[m.Name].Value {
						t.Errorf("metric %s differs across runs with one seed: %v, then %v", m.Name, got.Value, second.Metrics[m.Name].Value)
					}
				}
			}
		})
	}
}

// TestVetClean keeps the benchmark's module clean under go vet. The
// llmpq-vet suite covers this directory through the repository's
// TestModuleIsVetClean.
func TestVetClean(t *testing.T) {
	out, err := exec.Command("go", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
}
