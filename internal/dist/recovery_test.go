package dist

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/core/retry"
	"repro/internal/journal"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// patientRetry keeps workers alive across a coordinator restart: the gap
// between the crash and the recovered listener is bounded by test code,
// but each dial attempt must survive connection-refused in between.
var patientRetry = retry.Policy{MaxAttempts: 200, BaseDelaySec: 0.02, Factor: 1.5, MaxDelaySec: 0.2, JitterFrac: 0.2}

// rebind binds the exact address a previous listener held — the restart
// contract: workers keep dialing the address they joined.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
	return nil
}

func metricsText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCoordinatorCrashRecovery is the tentpole contract end to end: a
// journaled coordinator crashes mid-decode (injected, indistinguishable
// from SIGKILL on the wire), a fresh coordinator replays the journal,
// the workers reattach under their rejoin tokens, and the recovered
// run's stats AND sim-metrics text are byte-identical to a journaled run
// that never crashed.
func TestCoordinatorCrashRecovery(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	stages := p.NumStages()
	// Crash after prefill plus three decode rounds: mid-decode, with
	// round watermarks already journaled.
	crashAt := stages*kp + 3*stages*kd + 1

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Reference: a journaled run that never crashes.
	refReg := obs.NewRegistry()
	refDir := t.TempDir()
	lnRef := listen(t)
	joinRef := startWorkers(ctx, 2, lnRef.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
	})
	refTap := &foldTap{}
	ref, err := serve(ctx, Config{
		Listener: lnRef, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: refDir, StrategyHash: "fnv1a:test",
		Obs: refReg,
	}, refTap.tap)
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range joinRef() {
		if werr != nil {
			t.Fatalf("reference worker %d exit: %v", i, werr)
		}
	}
	refState := replayDir(t, refDir)
	if !refState.Done {
		t.Error("reference journal should end in a done record")
	}
	if refState.LastRound == nil || refState.LastRound.Watermark != s.Work.Generate {
		t.Errorf("reference journal watermark %+v, want %d", refState.LastRound, s.Work.Generate)
	}

	// Crash run: same workload, coordinator dies after crashAt calls.
	dir := t.TempDir()
	ln1 := listen(t)
	addr := ln1.Addr().String()
	join := startWorkers(ctx, 2, addr, func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
	})
	live := &foldTap{}
	_, err = serve(ctx, Config{
		Listener: ln1, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, StrategyHash: "fnv1a:test",
		CoordFailAfter: crashAt,
	}, live.tap)
	if !errors.Is(err, ErrInjectedCoordCrash) {
		t.Fatalf("crash run returned %v, want ErrInjectedCoordCrash", err)
	}
	mid := replayDir(t, dir)
	if mid.Done {
		t.Fatal("crashed journal must not record completion")
	}
	if mid.LastRound == nil || mid.LastRound.Watermark < 1 {
		t.Fatalf("crash landed before any round commit: %+v", mid.LastRound)
	}

	// Recovery: rebind the same address, replay, reattach, finish.
	reg2 := obs.NewRegistry()
	ctrl2 := obs.NewRegistry()
	ln2 := rebind(t, addr)
	res, err := serve(ctx, Config{
		Listener: ln2, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, Recover: true, StrategyHash: "fnv1a:test",
		Obs: reg2, CtrlObs: ctrl2,
	}, live.tap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("recovered pre-replan run must not report a replan")
	}
	if !reflect.DeepEqual(res.First, ref.First) {
		t.Errorf("recovered stats diverged from the uninterrupted run:\nrecovered: %+v\nreference: %+v", res.First, ref.First)
	}
	if got, want := metricsText(t, reg2), metricsText(t, refReg); got != want {
		t.Errorf("recovered sim metrics are not byte-identical:\nrecovered:\n%s\nreference:\n%s", got, want)
	}
	if v := ctrl2.Counter("llmpq_journal_replayed_records").Value(); v < 1 {
		t.Errorf("replayed-records counter %.0f, want >= 1", v)
	}
	if v := ctrl2.Counter("llmpq_dist_reattach_total").Value(); v != 2 {
		t.Errorf("reattach counter %.0f, want 2 (both workers rejoin by token)", v)
	}
	fin := replayDir(t, dir)
	if !fin.Done {
		t.Error("recovered journal should end in a done record")
	}
	if len(fin.Members) != 2 {
		t.Errorf("journal holds %d members, want 2", len(fin.Members))
	}
	checkLiveFold(t, refDir, refTap)
	checkLiveFold(t, dir, live)
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
}

// replayDir decodes the journal under dir.
func replayDir(t *testing.T, dir string) *durable {
	t.Helper()
	rep, err := journal.ReplayFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashAfterReplanRecovery covers the journal's load-bearing case: a
// worker loss triggers a failover replan, the coordinator crashes during
// the resumed run, and recovery — which cannot re-derive the wall-clock
// loss instant — resumes the journaled degraded epoch from the durable
// watermark with exact token conservation.
func TestCrashAfterReplanRecovery(t *testing.T) {
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

	// Reference failover run (no coordinator crash) to count the total
	// completed stage calls — the crash point is then placed two calls
	// before the end, safely inside the post-replan resumed run.
	refReg := obs.NewRegistry()
	lnRef := listen(t)
	joinRef := startWorkers(ctx, 2, lnRef.Addr().String(), func(i int, cfg *WorkerConfig) {
		if i == 1 {
			cfg.FailAfterCalls = workerDiesAt
		}
	})
	refRes, err := Serve(ctx, Config{
		Listener: lnRef, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		Obs: refReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Replanned || refRes.TotalTokens != clean.TokensOut {
		t.Fatalf("reference failover run malformed: %+v", refRes)
	}
	joinRef()
	totalCalls := int(refReg.Counter("llmpq_dist_stage_calls_total").Value())
	if totalCalls < 4 {
		t.Fatalf("reference run made only %d stage calls", totalCalls)
	}

	// Crash run: worker-b dies, replan lands in the journal, then the
	// coordinator dies near the end of the resumed run.
	dir := t.TempDir()
	ln1 := listen(t)
	addr := ln1.Addr().String()
	join := startWorkers(ctx, 2, addr, func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
		if i == 1 {
			cfg.FailAfterCalls = workerDiesAt
		}
	})
	live := &foldTap{}
	_, err = serve(ctx, Config{
		Listener: ln1, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		JournalDir: dir, CoordFailAfter: totalCalls - 2,
	}, live.tap)
	if !errors.Is(err, ErrInjectedCoordCrash) {
		t.Fatalf("crash run returned %v, want ErrInjectedCoordCrash", err)
	}
	mid := replayDir(t, dir)
	if len(mid.Plans) != 2 || mid.Plans[1].Transition.Lost == nil {
		t.Fatalf("crashed journal should hold the shrink epoch (plans=%d)", len(mid.Plans))
	}

	// Recovery: only the survivor reattaches; worker-b is journaled lost.
	reg2 := obs.NewRegistry()
	ctrl2 := obs.NewRegistry()
	ln2 := rebind(t, addr)
	res, err := serve(ctx, Config{
		Listener: ln2, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, Recover: true,
		Obs: reg2, CtrlObs: ctrl2,
	}, live.tap)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatal("recovery of a post-replan crash must report the replan")
	}
	if res.LostWorker != "worker-b" {
		t.Errorf("lost worker %q, want worker-b", res.LostWorker)
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("token conservation violated across crash recovery: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	if v := reg2.Counter("llmpq_failover_replans_total").Value(); v != 1 {
		t.Errorf("recovered sim registry replans %.0f, want 1 (re-exported from the journal)", v)
	}
	if v := ctrl2.Counter("llmpq_journal_replayed_records").Value(); v < 1 {
		t.Errorf("replayed-records counter %.0f, want >= 1", v)
	}
	checkLiveFold(t, dir, live)
	werrs := join()
	if !errors.Is(werrs[1], ErrInjectedDeath) {
		t.Errorf("worker-b should report injected death, got %v", werrs[1])
	}
	if werrs[0] != nil {
		t.Errorf("survivor exit: %v", werrs[0])
	}
}

// TestHandshakeConnDropRace drops a worker's connection immediately
// after its hello — the welcome carrying the freshly minted rejoin token
// dies on the wire. The retrying worker must be readmitted under a
// rotated token (never double-registered, never handed the leaked one)
// and the run must complete with clean-run parity.
func TestHandshakeConnDropRace(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	local, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindConnDrop, Conn: 0, AfterFrames: 1}, // sever right after the hello
	}}
	if err := sched.Validate(p.NumStages()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := NewFaultListener(listen(t), sched, nil, ctrl)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, CtrlObs: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("a handshake conn drop must heal without a replan")
	}
	if res.First.TokensOut != local.TokensOut || res.First.LatencySec != local.LatencySec {
		t.Errorf("stats diverged after the handshake race: %+v vs %+v", res.First, local)
	}
	st := replayDir(t, dir)
	if len(st.Members) != 2 {
		t.Fatalf("journal registered %d members, want 2 (no double registration)", len(st.Members))
	}
	// The dropped welcome's token must have been rotated away: the
	// journal's latest mint for the victim outranks its first.
	byName := map[string]int{}
	for _, m := range st.Members {
		byName[m.Name]++
	}
	for name, n := range byName {
		if n != 1 {
			t.Errorf("worker %q registered %d times in decoded membership", name, n)
		}
	}
	if !st.Done {
		t.Error("run should have sealed the journal")
	}
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
}

// TestAdmitCollisionAndRotation pins the admit state machine directly:
// lost-welcome rotation, stale-token rejection, retryable mid-handshake
// collision, and the proven latch that closes the name for good.
func TestAdmitCollisionAndRotation(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p}
	co := testCoordinator(t, cfg)

	m1, rec1, rej, retryable := co.admit(&Hello{Name: "w"})
	if rej != "" || m1 == nil || rec1 == nil {
		t.Fatalf("fresh admit failed: %q", rej)
	}
	if retryable {
		t.Error("fresh admit must not be marked retryable")
	}

	// Same name, no token, unattached and unproven: the welcome was lost;
	// the token rotates and the old one is dead.
	m2, rec2, rej, _ := co.admit(&Hello{Name: "w"})
	if rej != "" || m2 != m1 {
		t.Fatalf("lost-welcome retry must resolve to the same member (reject %q)", rej)
	}
	if rec2 == nil || rec2.Token == rec1.Token || rec2.Ord <= rec1.Ord {
		t.Fatalf("rotation did not mint a fresh token: %+v then %+v", rec1, rec2)
	}
	if _, _, rej, retryable = co.admit(&Hello{Name: "w", Token: rec1.Token}); rej == "" || retryable {
		t.Error("the leaked (rotated-away) token must be fatally rejected")
	}

	// The rotated token opens the name and proves the worker.
	m3, rec3, rej, _ := co.admit(&Hello{Name: "w", Token: rec2.Token})
	if rej != "" || m3 != m1 || rec3 != nil {
		t.Fatalf("current token rejected: %q (rec %+v)", rej, rec3)
	}
	if !m1.st.proven() {
		t.Fatal("token echo must mark the member proven")
	}

	// Once proven, a token-less hello for the name is fatal, attached or
	// not — rotation would hand the name to a usurper.
	if _, _, rej, retryable = co.admit(&Hello{Name: "w"}); rej == "" || retryable {
		t.Errorf("token-less hello for a proven name must be fatally rejected (got %q retryable=%v)", rej, retryable)
	}

	// An unproven but attached name is a handshake in flight: transient.
	mu, _, rej, _ := co.admit(&Hello{Name: "u"})
	if rej != "" {
		t.Fatal(rej)
	}
	co.attach(mu, &fakeLink{})
	if _, _, rej, retryable = co.admit(&Hello{Name: "u"}); rej == "" || !retryable {
		t.Errorf("mid-handshake collision must be a retryable reject (got %q retryable=%v)", rej, retryable)
	}

	// An unknown token never opens anything.
	if _, _, rej, _ = co.admit(&Hello{Name: "ghost", Token: "lease-9-ghost"}); rej == "" {
		t.Error("unknown token must be rejected")
	}
}

// TestRecoverTruncatesTornTail exercises openJournal's torn-tail path at
// the unit level: a journal whose final append was cut mid-record
// recovers to the last complete record, truncates the tail, bumps the
// ctrl counters, and continues appending cleanly.
func TestRecoverTruncatesTornTail(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	dir := t.TempDir()
	mk := func(recover bool, ctrl *obs.Registry) *coordinator {
		cfg := Config{Workers: 2, Spec: s, Plan: p, JournalDir: dir, Recover: recover, CtrlObs: ctrl}
		return bareCoordinator(cfg)
	}

	co := mk(false, nil)
	if err := co.openJournal(); err != nil {
		t.Fatal(err)
	}
	if err := co.jnl.append(&Record{Type: RecMember, Member: &MemberRecord{Name: "w", Token: "lease-1-w", Ord: 1}}); err != nil {
		t.Fatal(err)
	}
	co.jnl.close()
	// Simulate a crash mid-append: a dangling half-record.
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctrl := obs.NewRegistry()
	co2 := mk(true, ctrl)
	if err := co2.openJournal(); err != nil {
		t.Fatal(err)
	}
	if v := ctrl.Counter("llmpq_journal_torn_tail_total").Value(); v != 1 {
		t.Errorf("torn-tail counter %.0f, want 1", v)
	}
	if v := ctrl.Counter("llmpq_journal_replayed_records").Value(); v != 2 {
		t.Errorf("replayed-records counter %.0f, want 2", v)
	}
	if st := co2.jnl.state(); len(st.Members) != 1 || co2.tokens != 1 {
		t.Errorf("membership not reconstructed: %+v tokens=%d", st.Members, co2.tokens)
	}
	if err := co2.jnl.append(&Record{Type: RecDone}); err != nil {
		t.Fatal(err)
	}
	co2.jnl.close()
	// The recover and done appends are each timed, fsync included.
	if n := ctrl.Histogram("llmpq_journal_append_seconds", obs.TimeBuckets()).Count(); n != 2 {
		t.Errorf("append histogram holds %d observations, want 2", n)
	}

	rep, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 {
		t.Errorf("journal still torn after recovery (%d bytes)", rep.TornBytes)
	}
	st, err := DecodeState(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Records != 4 {
		t.Errorf("recovered journal should hold plan+member+recover+done, got %d records (done=%v)", st.Records, st.Done)
	}
}

// TestRecoverRefusesForeignJournal: recovery must fail loudly when the
// journal belongs to a different strategy (hash or payload mismatch) or
// records a completed run.
func TestRecoverRefusesForeignJournal(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	dir := t.TempDir()
	mk := func(recover bool, hash string, spec *assigner.Spec, plan *assigner.Plan) *coordinator {
		cfg := Config{Workers: 2, Spec: spec, Plan: plan, JournalDir: dir, Recover: recover, StrategyHash: hash}
		return bareCoordinator(cfg)
	}
	co := mk(false, "fnv1a:aaaa", s, p)
	if err := co.openJournal(); err != nil {
		t.Fatal(err)
	}
	co.jnl.close()

	if err := mk(true, "fnv1a:bbbb", s, p).openJournal(); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("hash mismatch must fail recovery, got %v", err)
	}

	s3 := distSpec3(t)
	p3 := distPlan(t, s3)
	if err := mk(true, "fnv1a:aaaa", s3, p3).openJournal(); err == nil || !strings.Contains(err.Error(), "plan") {
		t.Errorf("payload mismatch must fail recovery, got %v", err)
	}

	co4 := mk(false, "", s, p)
	co4.cfg.Recover = false
	// Seal a fresh journal and verify a completed run refuses recovery.
	dir2 := t.TempDir()
	co4.cfg.JournalDir = dir2
	if err := co4.openJournal(); err != nil {
		t.Fatal(err)
	}
	co4.jnl.append(&Record{Type: RecDone})
	co4.jnl.close()
	co5 := mk(true, "", s, p)
	co5.cfg.JournalDir = dir2
	if err := co5.openJournal(); err == nil || !strings.Contains(err.Error(), "completed") {
		t.Errorf("a sealed journal must refuse recovery, got %v", err)
	}
}

// TestRecoveryPartialReattach: a journaled member that never comes back
// after the crash is declared lost at the recovery barrier, and the run
// proceeds on the workers that did return — the barrier reassigns every
// stage to the survivors, so a pre-replan crash still finishes with the
// clean run's exact stats.
func TestRecoveryPartialReattach(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	crashAt := p.NumStages()*(kp+kd) + 1

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir := t.TempDir()
	ln1 := listen(t)
	addr := ln1.Addr().String()
	joinA := startWorkers(ctx, 1, addr, func(i int, cfg *WorkerConfig) {
		cfg.Retry = patientRetry
	})
	ctxB, cancelB := context.WithCancel(ctx)
	errB := make(chan error, 1)
	go func() {
		errB <- RunWorker(ctxB, WorkerConfig{
			Name: "worker-b", Connect: addr, RetrySeed: 101, Retry: patientRetry,
		})
	}()
	_, err = Serve(ctx, Config{
		Listener: ln1, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JournalDir: dir, CoordFailAfter: crashAt,
	})
	if !errors.Is(err, ErrInjectedCoordCrash) {
		t.Fatalf("crash run returned %v, want ErrInjectedCoordCrash", err)
	}
	cancelB() // worker-b never reattaches
	<-errB

	ctrl2 := obs.NewRegistry()
	ln2 := rebind(t, addr)
	res, err := Serve(ctx, Config{
		Listener: ln2, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		JoinTimeout: 2 * time.Second,
		JournalDir:  dir, Recover: true, CtrlObs: ctrl2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Error("barrier reassignment must heal a pre-replan crash without a replan")
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("partial reattach lost tokens: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	if !reflect.DeepEqual(res.First, clean) {
		t.Errorf("recovered stats diverged: %+v vs %+v", res.First, clean)
	}
	if v := ctrl2.Counter("llmpq_dist_lease_expiries_total").Value(); v != 1 {
		t.Errorf("absent member should count one lease expiry, got %.0f", v)
	}
	if werrs := joinA(); werrs[0] != nil {
		t.Errorf("survivor exit: %v", werrs[0])
	}
}

// TestRecoveryJoinTimeoutNoWorkers: when nobody reattaches, recovery
// must fail at the barrier with a membership error, not hang.
func TestRecoveryJoinTimeoutNoWorkers(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := Serve(ctx, Config{
		Listener: listen(t), Workers: 2, Spec: s, Plan: p,
		JoinTimeout: 200 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "joined within") {
		t.Fatalf("empty barrier returned %v, want a join-timeout error", err)
	}
}

// TestCrashRefusesRedial pins the injected crash's process-death
// semantics at the window that used to leak a worker: once crash() runs,
// every admitted connection is severed and a worker redialing by token
// into the still-unwinding coordinator is refused, so no worker is left
// heartbeating a dead coordinator while its successor waits for it.
func TestCrashRefusesRedial(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Listener: listen(t), Workers: 1, Spec: s, Plan: p}
	co := testCoordinator(t, cfg)
	co.ctx, co.cancel = context.WithCancel(context.Background())
	defer co.cancel()

	// The worker joins and receives its rejoin token.
	w := greet(co, &fakeLink{}, Hello{Name: "w"})
	if len(w.sent) != 1 || w.sent[0].Type != MsgWelcome {
		t.Fatalf("join: %+v", w.sent)
	}
	token := w.sent[0].Welcome.Token

	co.crash()
	if !w.closed {
		t.Fatal("the admitted connection survived the crash")
	}

	// The severed worker redials by token before the coordinator has
	// unwound: it must be refused, not welcomed.
	w2 := greet(co, &fakeLink{}, Hello{Name: "w", Token: token})
	if len(w2.sent) > 0 || !w2.closed {
		t.Fatalf("a redial into the crashed coordinator was answered: %+v", w2.sent)
	}
	if conn := co.members["w"].conn; conn != nil && !conn.(*fakeLink).closed {
		t.Error("the crashed coordinator holds a live connection for the worker")
	}
}

// TestWelcomePrecedesAttach: a connection is attached — open to stage
// calls — only after its welcome went out. Attached first, a recovered
// coordinator whose barrier closed on the other worker sent the
// handshaking worker a stage call ahead of its welcome; the worker
// failed its handshake and reattached a second time.
func TestWelcomePrecedesAttach(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p}
	co := testCoordinator(t, cfg)

	var attached bool
	w := &fakeLink{}
	w.onSend = func(*Message) {
		if len(w.sent) == 1 { // the coordinator is writing the welcome
			attached = co.members["w"].conn != nil
		}
	}
	greet(co, w, Hello{Name: "w"})
	if attached {
		t.Error("the connection was attached before its welcome went out")
	}
	if len(w.sent) == 0 || w.sent[0].Type != MsgWelcome {
		t.Fatalf("first frame %+v, want the welcome", w.sent)
	}
}
