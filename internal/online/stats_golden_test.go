package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite golden stats fixtures")

// statsGolden is one Stats snapshot of the fixture, or the error Run
// returned instead. float64 fields marshal to their shortest round-trip
// form, so a byte-equal fixture means bit-equal fields.
type statsGolden struct {
	Case  string `json:"case"`
	Error string `json:"error,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// goldenRunCases runs the closed-loop trace over bits × arrival rate ×
// KV-failure probability, with the precision ladder off and on, always
// load-shedding past a watermark.
func goldenRunCases() []statsGolden {
	var out []statsGolden
	for _, bits := range []int{16, 8, 4} {
		for _, arrival := range []float64{0.5, 2, 6} {
			for _, p := range []float64{0, 0.3, 0.9} {
				for _, shift := range []bool{false, true} {
					c := Config{
						GPU: hardware.V100, Model: model.OPT13B, Bits: bits,
						Arrival: arrival, Duration: 20, MaxNew: 64, MaxBatch: 32, Seed: 7,
						ShedDepth: 12, Downshift: shift, Upshift: shift,
					}
					if p > 0 {
						c.Chaos = kvPressure(p)
					}
					g := statsGolden{Case: fmt.Sprintf("run/bits%d/arrival%g/kvfail%g/shift%t", bits, arrival, p, shift)}
					if st, err := Run(c); err != nil {
						g.Error = err.Error()
					} else {
						g.Stats = &st
					}
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// goldenOpenCases drives an open-loop engine the way a front door does —
// seeded submissions interleaved with a few decode steps each — and
// snapshots Stats every 100 submissions and once more after draining.
func goldenOpenCases(t *testing.T) []statsGolden {
	t.Helper()
	e, err := NewEngine(Config{
		GPU: hardware.V100, Model: model.OPT13B, Bits: 16,
		MaxNew: 64, MaxBatch: 16, Seed: 7, ShedDepth: 8,
		Downshift: true, Upshift: true, Chaos: kvPressure(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	var out []statsGolden
	snap := func(name string) {
		st := e.Stats()
		out = append(out, statsGolden{Case: name, Stats: &st})
	}
	snap("open/start")
	for n := 1; n <= 700; n++ {
		if _, err := e.Submit(16+rng.Intn(600), 1+rng.Intn(64)); err != nil && !errors.Is(err, ErrShed) {
			t.Fatal(err)
		}
		for k := rng.Intn(4); k > 0; k-- {
			if _, err := e.StepOnce(); err != nil {
				t.Fatal(err)
			}
		}
		if n%100 == 0 {
			snap(fmt.Sprintf("open/submitted%d", n))
		}
	}
	drain(t, e)
	snap("open/drained")
	return out
}

// TestGoldenStats pins every Stats field, bit for bit, for closed-loop
// runs under KV chaos, shedding and the precision ladder, and for
// snapshots of an open-loop session. Refresh with -update only on an
// intended change to the serving simulation:
// go test ./internal/online -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	cases := append(goldenRunCases(), goldenOpenCases(t)...)
	var data bytes.Buffer
	data.WriteString("[\n")
	for i, c := range cases {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		data.Write(line)
		if i < len(cases)-1 {
			data.WriteByte(',')
		}
		data.WriteByte('\n')
	}
	data.WriteString("]\n")
	path := filepath.Join("testdata", "golden", "stats.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	if bytes.Equal(wantData, data.Bytes()) {
		return
	}
	var want []statsGolden
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d snapshots, the test takes %d", path, len(want), len(cases))
	}
	for i := range cases {
		got, _ := json.Marshal(cases[i])
		exp, _ := json.Marshal(want[i])
		if !bytes.Equal(got, exp) {
			t.Fatalf("snapshot %d (%s) diverged from %s:\n got %s\nwant %s", i, cases[i].Case, path, got, exp)
		}
	}
	t.Fatalf("%s is not byte-identical to the snapshots", path)
}
