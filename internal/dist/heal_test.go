package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/core/retry"
	"repro/internal/failover"
	"repro/internal/journal"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// TestLostWorkerAdmitFence pins the default fence: once the lease
// sweeper declares a worker LOST, no hello — not even one carrying the
// worker's own current rejoin token — reopens the name. The heal path
// (Config.Rejoin) deliberately relaxes this for flagged rejoins; with
// rejoin disabled the fence must hold so a run's membership stays
// closed after loss.
func TestLostWorkerAdmitFence(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p}
	co := testCoordinator(t, cfg)

	m, rec, rej, _ := co.admit(&Hello{Name: "w"})
	if rej != "" || m == nil || rec == nil {
		t.Fatalf("fresh admit failed: %q", rej)
	}
	// Prove the worker (token echo), then let the sweeper lose it.
	if _, _, rej, _ := co.admit(&Hello{Name: "w", Token: rec.Token}); rej != "" {
		t.Fatalf("token echo rejected: %q", rej)
	}
	co.markLost(m)

	cases := []struct {
		name  string
		hello *Hello
	}{
		{"own current token", &Hello{Name: "w", Token: rec.Token}},
		{"token-less restart", &Hello{Name: "w"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, recGot, rej, retryable := co.admit(c.hello)
			if rej == "" {
				t.Fatalf("LOST member admitted (member %v, record %v)", got, recGot)
			}
			if retryable {
				t.Error("the fence must be fatal, not retryable")
			}
			if !strings.Contains(rej, "lease expired") {
				t.Errorf("reject %q does not name the expired lease", rej)
			}
		})
	}
}

// TestRejoinAdmitStateMachine walks the heal half of admit under
// Config.Rejoin: stale tokens and un-flagged restarts stay fenced,
// flagged restarts rotate the token and enter REJOINING, the member's
// own current token reopens the name without rotation, and a flapper
// past the tolerance is quarantined for good.
func TestRejoinAdmitStateMachine(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p, Rejoin: true}
	co := testCoordinator(t, cfg)
	m, rec, rej, _ := co.admit(&Hello{Name: "w"})
	if rej != "" {
		t.Fatalf("fresh admit failed: %q", rej)
	}
	if _, _, rej, _ := co.admit(&Hello{Name: "w", Token: rec.Token}); rej != "" {
		t.Fatalf("token echo rejected: %q", rej)
	}
	co.markLost(m) // loss 1

	if _, _, rej, retryable := co.admit(&Hello{Name: "w", Token: "lease-99-w", Rejoin: true}); !strings.Contains(rej, "stale rejoin token") || retryable {
		t.Errorf("stale token must fence fatally, got %q retryable=%v", rej, retryable)
	}
	if _, _, rej, _ := co.admit(&Hello{Name: "w"}); !strings.Contains(rej, "lease expired") {
		t.Errorf("un-flagged restart must keep the closed-membership fence, got %q", rej)
	}
	got, rec2, rej, _ := co.admit(&Hello{Name: "w", Rejoin: true})
	if rej != "" || got != m {
		t.Fatalf("flagged restart not re-admitted: %q", rej)
	}
	if rec2 == nil || rec2.Token == rec.Token {
		t.Fatalf("rejoin must rotate the token, got %+v", rec2)
	}
	rejoining, lost := !m.st.rejoinedAt.IsZero(), !m.st.live()
	if !rejoining || lost {
		t.Errorf("member should be REJOINING, got rejoining=%v lost=%v", rejoining, lost)
	}

	// A surviving process back from a partition reopens with its own
	// current token, no rotation.
	co.markLost(m) // loss 2
	got, rec3, rej, _ := co.admit(&Hello{Name: "w", Token: rec2.Token})
	if rej != "" || got != m || rec3 != nil {
		t.Fatalf("tokened rejoin failed: member=%v rec=%v rej=%q", got, rec3, rej)
	}

	// Loss 3 exceeds the default tolerance of 2: quarantine.
	co.markLost(m)
	if _, _, rej, retryable := co.admit(&Hello{Name: "w", Rejoin: true}); !strings.Contains(rej, "quarantined") || retryable {
		t.Errorf("third loss must quarantine, got %q retryable=%v", rej, retryable)
	}
	// Quarantine is sticky: even the current token no longer opens it.
	if _, _, rej, _ := co.admit(&Hello{Name: "w", Token: rec2.Token}); !strings.Contains(rej, "quarantined") {
		t.Errorf("quarantine must survive a tokened retry, got %q", rej)
	}
}

// TestRejoinRaceBeforeLeaseExpiry: a heal-capable restart that reconnects
// before the sweeper's verdict is told to back off (retryable), not
// fenced out fatally — the restart raced its own lease.
func TestRejoinRaceBeforeLeaseExpiry(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p, Rejoin: true}
	co := testCoordinator(t, cfg)
	_, rec, rej, _ := co.admit(&Hello{Name: "w"})
	if rej != "" {
		t.Fatalf("fresh admit failed: %q", rej)
	}
	if _, _, rej, _ := co.admit(&Hello{Name: "w", Token: rec.Token}); rej != "" {
		t.Fatalf("token echo rejected: %q", rej)
	}
	// The member is proven and detached (no conn was ever attached in
	// this bare-coordinator test), not yet lost.
	_, _, rej, retryable := co.admit(&Hello{Name: "w", Rejoin: true})
	if rej == "" || !retryable {
		t.Errorf("pre-expiry rejoin should be retryable, got %q retryable=%v", rej, retryable)
	}
	// Without the heal flag the collision stays fatal.
	if _, _, rej, retryable := co.admit(&Hello{Name: "w"}); rej == "" || retryable {
		t.Errorf("un-flagged name claim must stay fatal, got %q retryable=%v", rej, retryable)
	}
}

// TestSeedRecoveredHealResurrects: a journal recording loss → replan →
// heal → restore seeds the worker back in as a live member (under its
// rotated token) instead of pre-marking it lost, and adopts the restored
// epoch as current.
func TestSeedRecoveredHealResurrects(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	payload := NewPlanPayload(s, p)
	enc := func(recs ...*Record) [][]byte {
		out := make([][]byte, len(recs))
		for i, r := range recs {
			r.Seq = i + 1
			buf, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = buf
		}
		return out
	}
	st, err := DecodeState(enc(
		&Record{Type: RecPlan, Plan: &PlanRecord{Epoch: 0, Payload: payload}},
		&Record{Type: RecMember, Member: &MemberRecord{Name: "worker-a", Token: "lease-1-worker-a", Ord: 1}},
		&Record{Type: RecMember, Member: &MemberRecord{Name: "worker-b", Token: "lease-2-worker-b", Ord: 2}},
		&Record{Type: RecPlan, Plan: &PlanRecord{Epoch: 1, Payload: payload, StartRound: 2, DurableTokens: 16,
			Transition: &TransitionRecord{Lost: &rt.DeviceLostError{Watermark: 2}, Workers: []string{"worker-b"}}}},
		&Record{Type: RecMember, Member: &MemberRecord{Name: "worker-b", Token: "lease-3-worker-b", Ord: 3}},
		&Record{Type: RecPlan, Plan: &PlanRecord{Epoch: 2, Payload: payload, StartRound: 6, DurableTokens: 48,
			Transition: &TransitionRecord{Halt: &rt.RestoreHaltError{Watermark: 6}, Workers: []string{"worker-b"}}}},
	))
	if err != nil {
		t.Fatal(err)
	}
	if tr := st.Plans[2].Transition; tr.Halt == nil || tr.Workers[0] != "worker-b" {
		t.Fatalf("restore not decoded: %+v", tr)
	}
	cfg := Config{Workers: 2, Spec: s, Plan: p, Rejoin: true}
	co := bareCoordinator(cfg)
	if err := co.seedMembers(st); err != nil {
		t.Fatal(err)
	}
	b := co.members["worker-b"]
	if b == nil {
		t.Fatal("worker-b missing from the recovered membership")
	}
	lost, token := !b.st.live(), b.st.token
	if lost {
		t.Error("the journaled heal must resurrect worker-b")
	}
	if token != "lease-3-worker-b" {
		t.Errorf("worker-b token %q, want the rotated lease-3-worker-b", token)
	}
	if epoch := st.current().Epoch; epoch != 2 || st.StartRound != 6 || st.BaseDurable != 48 {
		t.Errorf("current epoch %d/%d/%d, want restored 2/6/48", epoch, st.StartRound, st.BaseDurable)
	}
}

// TestWorkerRejoinHeal is the dist heal acceptance scenario: worker-b is
// killed mid-decode, its lease expires, the fleet replans degraded; a
// restarted worker-b presents its name with the rejoin flag, holds its
// lease through the dwell, and the coordinator halts the degraded run,
// replans back onto the full cluster — returning to exactly the
// pre-loss plan — and finishes there with every token conserved. The run
// is journaled, and every prefix of its journal must recover to the
// membership the coordinator held at that point.
func TestWorkerRejoinHeal(t *testing.T) {
	s := distSpec(t)
	s.Work.Generate = 32 // enough decode runway for the heal to land mid-run
	p := distPlan(t, s)
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	reg := obs.NewRegistry()
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ln := listen(t)
	dir := t.TempDir()

	pace := 20 * time.Millisecond
	// The restart's backoff must beat the degraded run: tight cadence so
	// the rejoin lands within the decode runway.
	pol := retry.Policy{MaxAttempts: 60, BaseDelaySec: 0.02, Factor: 1.3, MaxDelaySec: 0.1, JitterFrac: 0.2}
	var wg sync.WaitGroup
	var aErr, bErr1, bErr2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		aErr = RunWorker(ctx, WorkerConfig{
			Name: "worker-a", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 100,
		})
	}()
	go func() {
		defer wg.Done()
		// First incarnation dies mid-decode; the second presents the same
		// name token-less with the rejoin flag — a restarted process.
		bErr1 = RunWorker(ctx, WorkerConfig{
			Name: "worker-b", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 101,
			FailAfterCalls: kp + kd,
		})
		bErr2 = RunWorker(ctx, WorkerConfig{
			Name: "worker-b", Connect: ln.Addr().String(), Hold: pace, RetrySeed: 102,
			Rejoin: true, Retry: pol,
		})
	}()

	live := &foldTap{}
	res, err := serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		Rejoin: true, HealDwell: 50 * time.Millisecond,
		JournalDir: dir, Obs: reg, CtrlObs: ctrl,
	}, live.tap)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned || res.LostWorker != "worker-b" {
		t.Fatalf("expected worker-b loss+replan, got replanned=%v lost=%q", res.Replanned, res.LostWorker)
	}
	if !res.Restored {
		t.Fatal("the rejoined worker never healed back in")
	}
	if !reflect.DeepEqual(res.HealedWorkers, []string{"worker-b"}) {
		t.Errorf("healed workers %v, want [worker-b]", res.HealedWorkers)
	}
	if res.RestoreHalt == nil || res.RestoreHalt.Watermark < res.Lost.Watermark {
		t.Errorf("restore halt %+v must not regress the loss watermark %d", res.RestoreHalt, res.Lost.Watermark)
	}
	// The restore solve, on the full membership again, returns to exactly
	// the pre-loss plan.
	if !reflect.DeepEqual(res.RestoredPlan, p) {
		t.Errorf("restore did not return to the pre-loss plan:\nrestored: %+v\noriginal: %+v", res.RestoredPlan, p)
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("token conservation violated: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	if res.Final.TokensOut <= 0 {
		t.Error("the restored plan generated nothing")
	}
	var sim bytes.Buffer
	if err := reg.WriteText(&sim); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"llmpq_failover_restore_total 1", "llmpq_heal_device_returns_total 1"} {
		if !strings.Contains(sim.String(), want) {
			t.Errorf("sim metrics missing %q:\n%s", want, sim.String())
		}
	}
	if got := ctrl.Counter("llmpq_heal_rejoins_total").Value(); got < 1 {
		t.Errorf("ctrl rejoin counter %.0f, want >= 1", got)
	}
	wg.Wait()
	if aErr != nil {
		t.Errorf("worker-a exit: %v", aErr)
	}
	if !errors.Is(bErr1, ErrInjectedDeath) {
		t.Errorf("worker-b first incarnation should die injected, got %v", bErr1)
	}
	if bErr2 != nil {
		t.Errorf("worker-b rejoin exit: %v", bErr2)
	}
	checkHealJournal(t, dir, s, p)
	checkLiveFold(t, dir, live)
}

// checkHealJournal replays a healed run's journal: epoch 1 is the shrink
// that lost worker-b, epoch 2 the restore that healed it, and every
// record prefix — each a crash point — decodes, and recovery from it
// marks worker-b lost exactly while the shrink stands unrestored.
func checkHealJournal(t *testing.T, dir string, s *assigner.Spec, p *assigner.Plan) {
	t.Helper()
	rep, err := journal.ReplayFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Plans) != 3 || !st.Done {
		t.Fatalf("journal holds %d epochs (done=%v), want 3 and sealed", len(st.Plans), st.Done)
	}
	b := []string{"worker-b"}
	if tr := st.Plans[1].Transition; tr.Lost == nil || !reflect.DeepEqual(tr.Workers, b) {
		t.Errorf("epoch 1 transition %+v, want a shrink losing worker-b", tr)
	}
	if tr := st.Plans[2].Transition; tr.Halt == nil || !reflect.DeepEqual(tr.Workers, b) {
		t.Errorf("epoch 2 transition %+v, want a restore healing worker-b", tr)
	}
	for n := 1; n <= len(rep.Records); n++ {
		pst, err := DecodeState(rep.Records[:n])
		if err != nil {
			t.Fatalf("prefix of %d records: %v", n, err)
		}
		if pst.Done {
			continue
		}
		cfg := Config{Workers: 2, Spec: s, Plan: p, Rejoin: true}
		co := bareCoordinator(cfg)
		if err := co.seedMembers(pst); err != nil {
			t.Fatalf("prefix of %d records: %v", n, err)
		}
		lost := false
		if m := co.members["worker-b"]; m != nil {
			lost = !m.st.live()
		}
		if want := len(pst.Plans) == 2; lost != want {
			t.Errorf("prefix of %d records (%d epochs): worker-b lost=%v, want %v", n, len(pst.Plans), lost, want)
		}
	}
}

// TestDegradedContinuationTotals covers the epoch loop's loss → restore
// halt → no healed worker → continue-degraded sequence: the degraded
// epoch continues from the halt watermark without a new plan epoch, and
// the end-to-end latency counts the degraded time served before the halt.
func TestDegradedContinuationTotals(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	cfg := Config{Workers: 2, Spec: s, Plan: p, Rejoin: true}
	co := testCoordinator(t, cfg)
	lost := &rt.DeviceLostError{Stage: 1, Device: p.Order[1], AtSec: 1.5, Watermark: 2, DurableTokens: 16, PrefillDone: true}
	out, err := failover.Replan(s, p, nil, lost, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := leg{cur: out}
	l.res.Apply(out)
	halt := &rt.RestoreHaltError{AtSec: 2, Watermark: 5, DurableTokens: 40, PrefillDone: true}
	if l, err = co.grow(l, halt); err != nil {
		t.Fatal(err)
	}
	res := &l.res
	if epoch := co.jnl.state().current().Epoch; l.cur != out || epoch != 0 {
		t.Fatalf("no healed worker must continue the degraded epoch (epoch %d)", epoch)
	}
	if l.start != halt.Watermark || l.base != halt.DurableTokens {
		t.Errorf("continuation resumes at %d/%d, want the halt watermark %d/%d",
			l.start, l.base, halt.Watermark, halt.DurableTokens)
	}
	cont := rt.Stats{LatencySec: 3, TokensOut: 24}
	res.Finish(cont, l.base)
	if want := lost.AtSec + out.Migration.TransferSec + halt.AtSec + cont.LatencySec; res.TotalLatencySec != want {
		t.Errorf("total latency %.6f, want %.6f (loss + migration + degraded time to the halt + continuation)",
			res.TotalLatencySec, want)
	}
	if res.TotalTokens != halt.DurableTokens+cont.TokensOut {
		t.Errorf("total tokens %d, want %d", res.TotalTokens, halt.DurableTokens+cont.TokensOut)
	}
	if res.Restored || !reflect.DeepEqual(res.Resumed, cont) {
		t.Errorf("continuation must report as the resumed degraded run: restored=%v resumed=%+v", res.Restored, res.Resumed)
	}
}
