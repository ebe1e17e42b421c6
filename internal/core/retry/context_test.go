package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestDoContextDeterministicAttempts: with a never-cancelled context,
// DoContext behaves exactly like Do — same attempt count, same delays.
func TestDoContextDeterministicAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelaySec: 0.01, Factor: 2, JitterFrac: 0.2}
	var slept []float64
	calls := 0
	err := p.DoContext(context.Background(), 7, func(attempt int) error {
		calls++
		if attempt == 3 {
			return nil
		}
		return fmt.Errorf("attempt %d", attempt)
	}, func(_ context.Context, d float64) error {
		slept = append(slept, d)
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("err %v calls %d sleeps %d, want nil/3/2", err, calls, len(slept))
	}
	want := []float64{p.DelaySec(7, 1), p.DelaySec(7, 2)}
	if slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps %v, want prefix of %v", slept, want)
	}
}

// TestDoContextCancelMidBackoff: cancelling during the backoff sleep
// stops the loop with a deterministic attempt count — the sleep's
// context error aborts the loop, and no further attempt runs.
func TestDoContextCancelMidBackoff(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelaySec: 0.01, Factor: 2}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	opErr := errors.New("transient")
	err := p.DoContext(ctx, 1, func(int) error {
		calls++
		return opErr
	}, func(ctx context.Context, d float64) error {
		if calls == 2 {
			cancel() // the lease fired while we were backing off
		}
		return WallSleep(ctx, d)
	})
	if calls != 2 {
		t.Fatalf("calls %d, want exactly 2 (cancelled in backoff after attempt 2)", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if !errors.Is(err, opErr) {
		t.Fatalf("want last op error preserved in chain, got %v", err)
	}
}

// TestDoContextPreCancelled: a context already done runs zero attempts.
func TestDoContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Default().DoContext(ctx, 0, func(int) error { calls++; return nil }, nil)
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls %d err %v, want 0 attempts and context.Canceled", calls, err)
	}
}

// TestWallSleepInterruptible: a 10-second sleep returns promptly once the
// context is cancelled — the backoff is interruptible, not merely bounded.
func TestWallSleepInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := WallSleep(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleep was not interrupted (took %v)", elapsed)
	}
}

// TestWallSleepCompletes: an uninterrupted short sleep returns nil after
// roughly the requested delay; non-positive delays return immediately.
func TestWallSleepCompletes(t *testing.T) {
	if err := WallSleep(context.Background(), 0.005); err != nil {
		t.Fatalf("uninterrupted sleep: %v", err)
	}
	if err := WallSleep(context.Background(), 0); err != nil {
		t.Fatalf("zero delay: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := WallSleep(ctx, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("non-positive delay must still report a dead context, got %v", err)
	}
}

// TestDoContextValidates: an invalid policy fails before any attempt.
func TestDoContextValidates(t *testing.T) {
	err := Policy{MaxAttempts: 0}.DoContext(context.Background(), 0, func(int) error { return nil }, nil)
	if err == nil {
		t.Fatal("invalid policy must fail DoContext")
	}
}
