package dist

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/core/retry"
	"repro/internal/journal"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// decodeAll unmarshals a replayed journal's records.
func decodeAll(t *testing.T, raws [][]byte) []Record {
	t.Helper()
	recs := make([]Record, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &recs[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return recs
}

// checkBarrierSyncs pins where a finished run's fsyncs landed: one per
// record that is not a round watermark, and none for the rounds, which
// rode on the next barrier. Every record still counts as one append.
func checkBarrierSyncs(t *testing.T, dir string, ctrl *obs.Registry) int {
	t.Helper()
	rep, err := journal.ReplayFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || rep.TornBytes != 0 {
		t.Fatalf("journal not sealed (done=%v, torn %d bytes)", st.Done, rep.TornBytes)
	}
	barriers := 0
	for _, rec := range decodeAll(t, rep.Records) {
		if rec.Type != RecRound {
			barriers++
		}
	}
	if got := ctrl.Histogram("llmpq_journal_sync_seconds", obs.TimeBuckets()).Count(); got != uint64(barriers) {
		t.Errorf("%d fsyncs, want one per barrier record (%d of %d records)", got, barriers, len(rep.Records))
	}
	if got := ctrl.Counter("llmpq_journal_appends_total").Value(); got != float64(len(rep.Records)) {
		t.Errorf("%.0f appends counted, want every record (%d)", got, len(rep.Records))
	}
	return barriers
}

// TestJournalSyncsOnlyAtBarriers: a journaled 2-worker run fsyncs its
// epoch-0 plan, the two member mints and done, 4 in all, and a
// shrink-and-restore run also fsyncs exactly its non-round records.
func TestJournalSyncsOnlyAtBarriers(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s := distSpec(t)
		p := distPlan(t, s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ln := listen(t)
		join := startWorkers(ctx, 2, ln.Addr().String(), nil)
		dir, ctrl := t.TempDir(), obs.NewRegistry()
		if _, err := Serve(ctx, Config{
			Listener: ln, Workers: 2, Spec: s, Plan: p,
			Heartbeat: 100 * time.Millisecond, Lease: 2 * time.Second,
			JournalDir: dir, CtrlObs: ctrl,
		}); err != nil {
			t.Fatal(err)
		}
		if n := checkBarrierSyncs(t, dir, ctrl); n != 4 {
			t.Errorf("%d barrier records, want 4: the plan, two members and done", n)
		}
		for i, werr := range join() {
			if werr != nil {
				t.Errorf("worker %d exit: %v", i, werr)
			}
		}
	})
	t.Run("shrink and restore", func(t *testing.T) {
		dir, ctrl := t.TempDir(), obs.NewRegistry()
		res := healRun(t, dir, ctrl)
		if !res.Replanned || !res.Restored {
			t.Fatalf("expected a shrink and a restore, got replanned=%v restored=%v", res.Replanned, res.Restored)
		}
		checkBarrierSyncs(t, dir, ctrl)
	})
}

// healRun journals TestWorkerRejoinHeal's scenario under dir: worker-b
// dies mid-decode, the fleet replans degraded, a restarted worker-b
// rejoins and the coordinator restores the full plan.
func healRun(t *testing.T, dir string, ctrl *obs.Registry) *Result {
	t.Helper()
	s := distSpec(t)
	s.Work.Generate = 32
	p := distPlan(t, s)
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	ln := listen(t)
	pace := 20 * time.Millisecond
	pol := retry.Policy{MaxAttempts: 60, BaseDelaySec: 0.02, Factor: 1.3, MaxDelaySec: 0.1, JitterFrac: 0.2}
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = RunWorker(ctx, WorkerConfig{Name: "worker-a", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 100}) //llmpq:allow(errdrop): the run's result is what the caller checks
	}()
	go func() {
		defer wg.Done()
		_ = RunWorker(ctx, WorkerConfig{ //llmpq:allow(errdrop): the first incarnation dies by design
			Name: "worker-b", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 101,
			FailAfterCalls: kp + kd,
		})
		_ = RunWorker(ctx, WorkerConfig{ //llmpq:allow(errdrop): the run's result is what the caller checks
			Name: "worker-b", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 102,
			Rejoin: true, Retry: pol,
		})
	}()
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		Rejoin: true, HealDwell: 50 * time.Millisecond,
		JournalDir: dir, CtrlObs: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoverAfterPowerLossInDegradedEpoch covers the one crash point
// group commit adds: a power loss after a replan keeps the journal only
// up to its last barrier, the epoch-1 plan record, and drops every round
// watermark of the degraded epoch. Recovery re-executes that epoch from
// the plan record's watermark with exact token conservation.
func TestRecoverAfterPowerLossInDegradedEpoch(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	workerDiesAt := kp + kd
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dieB := func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
		if i == 1 {
			cfg.FailAfterCalls = workerDiesAt
		}
	}
	base := func(cfg Config) Config {
		cfg.Workers, cfg.Spec, cfg.Plan = 2, s, p
		cfg.Heartbeat, cfg.Lease = 50*time.Millisecond, 400*time.Millisecond
		return cfg
	}

	// A reference failover run counts the stage calls, so the crash lands
	// two calls before the end, inside the degraded epoch.
	refReg := obs.NewRegistry()
	lnRef := listen(t)
	joinRef := startWorkers(ctx, 2, lnRef.Addr().String(), dieB)
	if _, err := Serve(ctx, base(Config{Listener: lnRef, Obs: refReg})); err != nil {
		t.Fatal(err)
	}
	joinRef()
	totalCalls := int(refReg.Counter("llmpq_dist_stage_calls_total").Value())

	dir := t.TempDir()
	ln1 := listen(t)
	addr := ln1.Addr().String()
	join := startWorkers(ctx, 2, addr, dieB)
	_, err = Serve(ctx, base(Config{Listener: ln1, JournalDir: dir, CoordFailAfter: totalCalls - 2}))
	if !errors.Is(err, ErrInjectedCoordCrash) {
		t.Fatalf("crash run returned %v, want ErrInjectedCoordCrash", err)
	}

	// Cut the journal after its epoch-1 plan record, the last barrier.
	path := filepath.Join(dir, JournalFile)
	rep, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeAll(t, rep.Records)
	last, size := -1, 0
	for i, rec := range recs {
		if rec.Type != RecRound {
			last = i
		}
	}
	if rec := recs[last]; rec.Type != RecPlan || rec.Plan.Epoch != 1 {
		t.Fatalf("last barrier is a %s record, want the epoch-1 plan", rec.Type)
	}
	if last == len(recs)-1 {
		t.Fatal("the degraded epoch committed no round before the crash: the cut would drop nothing")
	}
	for _, raw := range rep.Records[:last+1] {
		size += 8 + len(raw) // the length and CRC header, then the payload
	}
	if err := os.Truncate(path, int64(size)); err != nil {
		t.Fatal(err)
	}

	res, err := Serve(ctx, Config{
		Listener: rebind(t, addr), Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, Recover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Error("recovery from the epoch-1 plan barrier must report the replan")
	}
	if res.LostWorker != "worker-b" {
		t.Errorf("lost worker %q, want worker-b", res.LostWorker)
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("token conservation violated: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	if werrs := join(); werrs[0] != nil {
		t.Errorf("survivor exit: %v", werrs[0])
	}
}
