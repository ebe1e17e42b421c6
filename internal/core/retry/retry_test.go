package retry

import (
	"fmt"
	"strings"
	"testing"
)

func TestPolicyValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	cases := []struct {
		p    Policy
		want string
	}{
		{Policy{MaxAttempts: 0}, "MaxAttempts"},
		{Policy{MaxAttempts: 2, BaseDelaySec: -1, Factor: 2}, "BaseDelaySec"},
		{Policy{MaxAttempts: 2, Factor: 0.5}, "Factor"},
		{Policy{MaxAttempts: 2, Factor: 2, MaxDelaySec: -1}, "MaxDelaySec"},
		{Policy{MaxAttempts: 2, Factor: 2, JitterFrac: 1}, "JitterFrac"},
		{Policy{MaxAttempts: 2, Factor: 2, JitterFrac: -0.1}, "JitterFrac"},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want substring %q", tc.p, err, tc.want)
		}
	}
}

func TestDelayDeterministicAndBounded(t *testing.T) {
	p := Default()
	for attempt := 1; attempt < p.MaxAttempts; attempt++ {
		a := p.DelaySec(99, attempt)
		b := p.DelaySec(99, attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic (%g vs %g)", attempt, a, b)
		}
		// Base grows as BaseDelaySec·Factor^(attempt−1), capped; jitter
		// spreads ±20%.
		base := p.BaseDelaySec
		for i := 1; i < attempt; i++ {
			base *= p.Factor
		}
		if base > p.MaxDelaySec {
			base = p.MaxDelaySec
		}
		lo, hi := base*(1-p.JitterFrac), base*(1+p.JitterFrac)
		if a < lo || a >= hi {
			t.Errorf("attempt %d: delay %g outside [%g, %g)", attempt, a, lo, hi)
		}
	}
	// Different seeds draw different jitter (overwhelmingly likely).
	if p.DelaySec(1, 1) == p.DelaySec(2, 1) {
		t.Error("seeds 1 and 2 drew identical jitter")
	}
	if got := p.DelaySec(1, 0); got != 0 {
		t.Errorf("attempt 0 delay %g, want 0", got)
	}
}

func TestDelayCapAndNoJitter(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelaySec: 1, Factor: 10, MaxDelaySec: 5}
	if got := p.DelaySec(0, 5); got != 5 {
		t.Errorf("capped delay %g, want 5", got)
	}
	if got := p.DelaySec(0, 1); got != 1 {
		t.Errorf("uncapped first delay %g, want 1", got)
	}
	q := Policy{MaxAttempts: 3, BaseDelaySec: 2, Factor: 3}
	if d := []float64{q.DelaySec(0, 1), q.DelaySec(0, 2)}; d[0] != 2 || d[1] != 6 {
		t.Errorf("delays = %v, want [2 6]", d)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	p := Default()
	var slept []float64
	calls := 0
	err := p.Do(7, func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return fmt.Errorf("transient %d", attempt)
		}
		return nil
	}, func(d float64) { slept = append(slept, d) })
	if err != nil {
		t.Fatalf("Do failed: %v", err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls %d sleeps %d, want 3 and 2", calls, len(slept))
	}
	want := []float64{p.DelaySec(7, 1), p.DelaySec(7, 2)}
	if slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps %v, want prefix of %v", slept, want)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelaySec: 0.001, Factor: 2}
	calls := 0
	err := p.Do(0, func(attempt int) error {
		calls++
		return fmt.Errorf("always fails (attempt %d)", attempt)
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "attempt 3") {
		t.Fatalf("want last error after exhaustion, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls %d, want 3", calls)
	}
}

func TestDoValidatesPolicy(t *testing.T) {
	err := Policy{MaxAttempts: 0}.Do(0, func(int) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "MaxAttempts") {
		t.Fatalf("invalid policy must fail Do, got %v", err)
	}
}
