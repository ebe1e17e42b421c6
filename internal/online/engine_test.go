package online

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/retry"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
)

func openConfig() Config {
	return Config{
		GPU: hardware.A100, Model: model.OPT13B, Bits: 8,
		MaxNew: 32, MaxBatch: 8, Seed: 7,
	}
}

// drain steps the engine until it reports idle.
func drain(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		ran, err := e.StepOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ran && !e.Busy() {
			return
		}
	}
	t.Fatal("engine never went idle")
}

// TestDownshiftStepFloor pins the 16→8→4→3 fallback ladder and its
// 3-bit floor: the quantizer supports nothing below 3 bits, so the
// ladder must saturate there instead of descending further.
func TestDownshiftStepFloor(t *testing.T) {
	steps := map[int]int{16: 8, 8: 4, 4: 3, 3: 3}
	for from, want := range steps {
		if got := downshiftStep(from); got != want {
			t.Errorf("downshiftStep(%d) = %d, want %d", from, got, want)
		}
	}
	// Repeated application from any supported precision reaches and
	// holds the floor.
	b := 16
	for i := 0; i < 10; i++ {
		b = downshiftStep(b)
	}
	if b != 3 {
		t.Errorf("ladder floor %d, want 3", b)
	}
}

// TestValidateOpen covers the open-loop validation introduced with the
// admission hooks: the Poisson trace knobs are optional, everything the
// engine itself uses is still checked.
func TestValidateOpen(t *testing.T) {
	if err := openConfig().ValidateOpen(); err != nil {
		t.Fatalf("open config invalid: %v", err)
	}
	// Closed-loop Validate still demands an arrival trace.
	if err := openConfig().Validate(); err == nil {
		t.Error("closed-loop Validate must reject a trace-free config")
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad bits", func(c *Config) { c.Bits = 5 }},
		{"negative arrival", func(c *Config) { c.Arrival = -1 }},
		{"negative duration", func(c *Config) { c.Duration = -1 }},
		{"zero max-new cap", func(c *Config) { c.MaxNew = 0 }},
		{"zero max batch", func(c *Config) { c.MaxBatch = 0 }},
		{"negative shed depth", func(c *Config) { c.ShedDepth = -1 }},
		{"invalid retry", func(c *Config) { c.Retry.MaxAttempts = 2; c.Retry.Factor = 0.1 }},
	}
	for _, tc := range cases {
		c := openConfig()
		tc.mut(&c)
		if err := c.ValidateOpen(); err == nil {
			t.Errorf("%s: ValidateOpen accepted %+v", tc.name, c)
		}
		if _, err := NewEngine(c); err == nil {
			t.Errorf("%s: NewEngine accepted the invalid config", tc.name)
		}
	}
}

// TestSubmitValidation covers the request-shape errors front doors map
// to 4xx responses.
func TestSubmitValidation(t *testing.T) {
	e, err := NewEngine(openConfig())
	if err != nil {
		t.Fatal(err)
	}
	window := openConfig().Model.MaxPosEmb
	bad := []struct {
		name           string
		prompt, maxNew int
	}{
		{"zero prompt", 0, 8},
		{"negative prompt", -3, 8},
		{"zero max-new", 10, 0},
		{"negative max-new", 10, -1},
		{"max-new above cap", 10, 33},
		{"context overflow", window, 32},
	}
	for _, tc := range bad {
		if _, err := e.Submit(tc.prompt, tc.maxNew); err == nil {
			t.Errorf("%s: Submit(%d, %d) accepted", tc.name, tc.prompt, tc.maxNew)
		} else if errors.Is(err, ErrShed) {
			t.Errorf("%s: validation error conflated with shedding: %v", tc.name, err)
		}
	}
	if e.Busy() {
		t.Error("rejected submissions must not enqueue work")
	}
}

// TestOpenLoopHooksAndStats drives two requests through the open-loop
// engine and checks every lifecycle hook fires the documented number of
// times, with the token stream totals agreeing with Stats.
func TestOpenLoopHooksAndStats(t *testing.T) {
	c := openConfig()
	var admits, tokens, finishes, sheds int
	var lastDone []int
	c.Hooks = Hooks{
		OnAdmit: func(r *Request) { admits++ },
		OnToken: func(r *Request) {
			tokens++
			for len(lastDone) <= r.ID() {
				lastDone = append(lastDone, 0)
			}
			if r.Done() != lastDone[r.ID()]+1 {
				t.Errorf("request %d token jumped %d -> %d", r.ID(), lastDone[r.ID()], r.Done())
			}
			lastDone[r.ID()] = r.Done()
		},
		OnFinish: func(r *Request) { finishes++ },
		OnShed:   func(r *Request) { sheds++ },
	}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Submit(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(25, 16)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	if admits != 2 || finishes != 2 || sheds != 0 {
		t.Errorf("admits %d finishes %d sheds %d, want 2/2/0", admits, finishes, sheds)
	}
	if want := r1.MaxNew() + r2.MaxNew(); tokens != want {
		t.Errorf("OnToken fired %d times, want %d", tokens, want)
	}
	st := e.Stats()
	if st.Completed != 2 || st.GeneratedTok != 24 {
		t.Errorf("stats %+v, want 2 completed / 24 tokens", st)
	}
	if st.PeakBatch < 2 {
		t.Errorf("peak batch %d, want >= 2 (both requests decode together)", st.PeakBatch)
	}
	if r1.FinishSec() <= 0 || r2.FinishSec() <= 0 {
		t.Error("finished requests must carry positive finish times")
	}
	if r1.LatencySec() <= 0 {
		t.Errorf("latency %.6f, want > 0", r1.LatencySec())
	}
}

// TestOpenLoopShedThenRecover: a queue at the watermark refuses new work
// with ErrShed, and once the backlog drains the same engine admits and
// completes later submissions — shedding is a pressure valve, not a
// terminal state.
func TestOpenLoopShedThenRecover(t *testing.T) {
	c := openConfig()
	c.MaxBatch = 1
	c.ShedDepth = 1
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(40, 8); err != nil {
		t.Fatal(err)
	}
	// Admit r1 into the batch (one decode step).
	if ran, err := e.StepOnce(); err != nil || !ran {
		t.Fatalf("first step ran=%v err=%v", ran, err)
	}
	if len(e.running) != 1 {
		t.Fatalf("running %d, want 1", len(e.running))
	}
	// r2 waits (MaxBatch 1); r3 finds the queue at the watermark.
	if _, err := e.Submit(40, 8); err != nil {
		t.Fatalf("second submit refused: %v", err)
	}
	if e.Waiting() != 1 {
		t.Fatalf("waiting %d, want 1", e.Waiting())
	}
	r3, err := e.Submit(40, 8)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("third submit: err %v, want ErrShed", err)
	}
	if !r3.Shed() {
		t.Error("refused request not marked shed")
	}
	// Recover: drain the backlog, then a fresh submission sails through.
	drain(t, e)
	if _, err := e.Submit(40, 8); err != nil {
		t.Fatalf("post-recovery submit refused: %v", err)
	}
	drain(t, e)
	st := e.Stats()
	if st.Completed != 3 {
		t.Errorf("completed %d, want 3", st.Completed)
	}
	if st.Shed != 1 {
		t.Errorf("shed %d, want 1", st.Shed)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected %d, want 1 (the shed submission)", st.Rejected)
	}
}

// TestOpenLoopDeterminism: the same submission sequence replays
// byte-for-byte — Stats deep-equal and identical sim-registry dumps —
// which is the property the HTTP front door's byte-diffed artifacts
// stand on.
func TestOpenLoopDeterminism(t *testing.T) {
	run := func() (Stats, string) {
		c := openConfig()
		reg := obs.NewRegistry()
		c.Obs = reg
		e, err := NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range []struct{ p, n int }{{40, 8}, {25, 16}, {100, 4}} {
			if _, err := e.Submit(sub.p, sub.n); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, e)
		var dump strings.Builder
		if err := reg.WriteText(&dump); err != nil {
			t.Fatal(err)
		}
		return e.Stats(), dump.String()
	}
	stA, dumpA := run()
	stB, dumpB := run()
	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("open-loop stats diverged:\na: %+v\nb: %+v", stA, stB)
	}
	if dumpA != dumpB {
		t.Error("open-loop sim registry dumps differ byte-for-byte")
	}
	if stA.Completed != 3 {
		t.Errorf("completed %d, want 3", stA.Completed)
	}
}

// TestClosedLoopPeakBatch: the new PeakBatch stat brackets MeanBatch on
// the closed-loop path too.
func TestClosedLoopPeakBatch(t *testing.T) {
	st, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakBatch < 1 {
		t.Fatalf("peak batch %d, want >= 1", st.PeakBatch)
	}
	if float64(st.PeakBatch) < st.MeanBatch {
		t.Errorf("peak batch %d below mean %.2f", st.PeakBatch, st.MeanBatch)
	}
}

// TestEngineAccessors pins the read-only surface the HTTP front door
// builds response metadata from.
func TestEngineAccessors(t *testing.T) {
	e, err := NewEngine(openConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Errorf("fresh engine Now %v, want 0", e.Now())
	}
	if e.Bits() != 8 {
		t.Errorf("Bits %d, want 8", e.Bits())
	}
	if e.KVCapacityTok() <= 0 {
		t.Errorf("KVCapacityTok %d, want > 0", e.KVCapacityTok())
	}
	r, err := e.Submit(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.PromptTokens() != 40 || r.ArriveSec() != 0 {
		t.Errorf("request prompt %d arrive %v", r.PromptTokens(), r.ArriveSec())
	}
	drain(t, e)
	if r.StartSec() < 0 || r.StartSec() > r.FinishSec() {
		t.Errorf("start %v outside [0, finish %v]", r.StartSec(), r.FinishSec())
	}
	if e.Now() <= 0 {
		t.Error("simulated time never advanced")
	}
}

// TestUnfittableHeadRejected: a request that passes shape validation but
// can never fit the paged-KV pool must be rejected at the admission
// step — OnShed fires, the queue does not wedge, and the engine goes
// idle instead of spinning.
func TestUnfittableHeadRejected(t *testing.T) {
	c := openConfig()
	c.GPU = hardware.T4 // opt-13b at 8-bit leaves a pool < 1k tokens
	var sheds int
	c.Hooks = Hooks{OnShed: func(r *Request) { sheds++ }}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	pool := e.KVCapacityTok()
	if pool <= 0 || pool+1 > c.Model.MaxPosEmb-1-32 {
		t.Fatalf("pool %d tokens not in the unfittable-but-valid range", pool)
	}
	r, err := e.Submit(pool+1, 32) // shape-valid, pool-unfittable
	if err != nil {
		t.Fatalf("shape-valid submit refused: %v", err)
	}
	ran, err := e.StepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("unfittable head must not decode")
	}
	if sheds != 1 || !r.Shed() {
		t.Errorf("sheds %d, Shed()=%v, want 1/true", sheds, r.Shed())
	}
	if e.Busy() {
		t.Error("engine must go idle after rejecting the head")
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
	// The pool itself still serves fittable work.
	if _, err := e.Submit(100, 8); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	if st := e.Stats(); st.Completed != 1 {
		t.Errorf("completed %d, want 1", st.Completed)
	}
}

// TestEngineNoKVMemory: a model too large for the device is a
// constructor error, not a runtime wedge.
func TestEngineNoKVMemory(t *testing.T) {
	c := openConfig()
	c.GPU = hardware.V100
	c.Model = model.OPT30B
	c.Bits = 16
	if _, err := NewEngine(c); err == nil {
		t.Fatal("opt-30b fp16 on a V100 must fail to leave KV memory")
	}
}

// TestOpenLoopKVChaosSheds: exhausted KV-allocation retries shed the
// request through the OnShed hook instead of wedging the open loop.
func TestOpenLoopKVChaosSheds(t *testing.T) {
	c := openConfig()
	c.Chaos = kvPressure(1.0) // every allocation fails
	c.Retry = retry.Policy{MaxAttempts: 2, BaseDelaySec: 0.001, Factor: 2, MaxDelaySec: 0.01}
	var sheds int
	c.Hooks = Hooks{OnShed: func(r *Request) { sheds++ }}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(40, 8); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	st := e.Stats()
	if st.KVFailures == 0 || st.Shed != 1 || sheds != 1 {
		t.Errorf("failures %d shed %d hooks %d, want >0/1/1", st.KVFailures, st.Shed, sheds)
	}
	if st.Completed != 0 {
		t.Errorf("completed %d under certain allocation failure", st.Completed)
	}
}
