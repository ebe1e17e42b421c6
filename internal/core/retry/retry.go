// Package retry provides deterministic bounded retry with jittered
// exponential backoff. Unlike the usual wall-clock retry helpers, every
// delay is a pure function of (policy, seed, attempt): the jitter comes
// from an explicitly seeded source, never time.Now or the global rand
// (the seededrand analyzer enforces this repo-wide), so simulated-time
// consumers — the online simulator's transient KV-allocation path —
// replay byte-for-byte, and real-time consumers inject their own sleep.
package retry

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Policy bounds one retry loop.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (>= 1; 1 means no retries).
	MaxAttempts int
	// BaseDelaySec is the backoff before the second attempt.
	BaseDelaySec float64
	// Factor multiplies the delay each further attempt (>= 1).
	Factor float64
	// MaxDelaySec caps a single delay (0 = uncapped).
	MaxDelaySec float64
	// JitterFrac spreads each delay uniformly over
	// [delay·(1−J), delay·(1+J)); must sit in [0, 1).
	JitterFrac float64
}

// Default is the policy used when a consumer enables retries without
// configuring them: 4 attempts, 10 ms base, doubling, 200 ms cap, ±20%.
func Default() Policy {
	return Policy{MaxAttempts: 4, BaseDelaySec: 0.010, Factor: 2, MaxDelaySec: 0.200, JitterFrac: 0.2}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("retry: MaxAttempts %d < 1", p.MaxAttempts)
	}
	if p.BaseDelaySec < 0 {
		return fmt.Errorf("retry: negative BaseDelaySec %g", p.BaseDelaySec)
	}
	if p.Factor < 1 {
		return fmt.Errorf("retry: Factor %g < 1", p.Factor)
	}
	if p.MaxDelaySec < 0 {
		return fmt.Errorf("retry: negative MaxDelaySec %g", p.MaxDelaySec)
	}
	if p.JitterFrac < 0 || p.JitterFrac >= 1 {
		return fmt.Errorf("retry: JitterFrac %g outside [0,1)", p.JitterFrac)
	}
	return nil
}

// DelaySec returns the backoff after the attempt-th failure (attempt is
// 1-based; attempt 1 is the delay between the first and second tries).
// The value is a pure function of (policy, seed, attempt): the jitter
// rng is re-derived per call, so delays do not depend on how many other
// retry loops share the seed or in what order they run.
func (p Policy) DelaySec(seed int64, attempt int) float64 {
	if attempt < 1 {
		return 0
	}
	d := p.BaseDelaySec
	for i := 1; i < attempt; i++ {
		d *= p.Factor
		if p.MaxDelaySec > 0 && d > p.MaxDelaySec {
			d = p.MaxDelaySec
			break
		}
	}
	if p.MaxDelaySec > 0 && d > p.MaxDelaySec {
		d = p.MaxDelaySec
	}
	if p.JitterFrac > 0 {
		// Mix attempt into the seed (odd LCG-style constant) so each
		// attempt draws an independent, reproducible jitter.
		rng := rand.New(rand.NewSource(seed ^ (int64(attempt) * 0x5851f42d4c957f2d)))
		d *= 1 - p.JitterFrac + 2*p.JitterFrac*rng.Float64()
	}
	return d
}

// Do runs op up to MaxAttempts times, calling sleep with the policy's
// delay between attempts. op receives the 1-based attempt number; a nil
// return stops the loop. sleep is injected so simulated-time callers
// advance a virtual clock and real-time callers block — Do itself never
// touches the wall clock. The last error is returned after the attempts
// are exhausted.
func (p Policy) Do(seed int64, op func(attempt int) error, sleep func(delaySec float64)) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var last error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if last = op(attempt); last == nil {
			return nil
		}
		if attempt < p.MaxAttempts && sleep != nil {
			sleep(p.DelaySec(seed, attempt))
		}
	}
	return last
}

// DoContext is Do with cancellation: the loop stops as soon as ctx is
// done — before an attempt, or mid-backoff when sleep honours the
// context (WallSleep does). Delays stay the pure (policy, seed, attempt)
// function of Do, so the attempt count up to any cancellation point is
// deterministic. On cancellation the context error is returned, wrapped
// over the last op error (errors.Is finds either).
func (p Policy) DoContext(ctx context.Context, seed int64, op func(attempt int) error, sleep func(ctx context.Context, delaySec float64) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var last error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return canceled(err, last)
		}
		if last = op(attempt); last == nil {
			return nil
		}
		if attempt < p.MaxAttempts && sleep != nil {
			if err := sleep(ctx, p.DelaySec(seed, attempt)); err != nil {
				return canceled(err, last)
			}
		}
	}
	return last
}

// canceled folds the context error over the last attempt's error.
func canceled(ctxErr, last error) error {
	if last == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last attempt: %w)", ctxErr, last)
}

// WallSleep blocks for delaySec of wall-clock time or until ctx is done,
// whichever comes first, returning the context error when interrupted.
// It is the real-time sleep injected into DoContext by consumers whose
// backoff must yield to an external deadline — the distributed control
// plane's reconnect loop aborting when the coordinator's round deadline
// or its lease fires.
func WallSleep(ctx context.Context, delaySec float64) error {
	if delaySec <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(delaySec * float64(time.Second)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
