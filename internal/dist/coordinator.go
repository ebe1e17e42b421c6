package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assigner"
	"repro/internal/failover"
	"repro/internal/journal"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// Config parameterizes one coordinator run.
type Config struct {
	// Listener accepts worker connections; the caller owns binding (and
	// may wrap it with NewFaultListener). Serve closes it.
	Listener net.Listener
	// Workers is the membership size Serve waits for before running.
	Workers int

	Spec *assigner.Spec
	Plan *assigner.Plan
	// Timer prices replans and any locally evaluated stage times; nil
	// uses the roofline profiler, matching the workers' default.
	Timer assigner.LayerTimer

	// Heartbeat is the interval workers beacon at (shipped in the
	// welcome) and the lease sweeper's tick. Default 500ms.
	Heartbeat time.Duration
	// Lease is how long a worker may stay silent before it is declared
	// permanently lost. A detached worker that reattaches within the
	// lease resumes seamlessly. Default 4×Heartbeat.
	Lease time.Duration
	// RoundDeadline bounds each stage batch — one worker's share of one
	// round — from the moment it is sent, up to seven rounds ahead of the
	// engine, so it covers the wait behind as many earlier batches (tens
	// of microseconds each against the 10s default): a worker still
	// evaluating at the deadline aborts the whole batch and reports rather
	// than answering late, and the coordinator gives up on a batch it has
	// waited on for deadline + Lease. 0 means the default, 10s; a
	// negative value disables the deadline, and a batch then has a Lease
	// to answer.
	RoundDeadline time.Duration
	// DeadlineRetries is how many times the coordinator re-sends one
	// batch after an abort or an unanswered wait before it fails the run.
	// Default 2.
	DeadlineRetries int
	// JoinTimeout bounds the initial membership barrier. Default 30s.
	JoinTimeout time.Duration

	// Rejoin opens the heal half of the membership state machine
	// (membership.go): a lost worker may re-admit mid-run and, once its
	// lease has held for HealDwell, the coordinator halts the degraded run
	// and replans capacity back onto the returned devices. Off (the
	// default), the membership stays closed after loss.
	Rejoin bool
	// HealDwell is how long a rejoined worker's lease must hold before
	// the capacity-restoring replan fires — flap damping's first line.
	// Default: Lease.
	HealDwell time.Duration
	// FlapTolerance is how many lease losses a worker may take; the next
	// one quarantines it for the run (failover.Quarantined). Default
	// failover.DefaultFlapTolerance.
	FlapTolerance int

	// JournalDir, when non-empty, makes the coordinator durable: every
	// determinism-relevant state transition — plan adoption (with the
	// failover transition behind it), token mints, watermark commits,
	// completion — is appended (CRC-framed) to
	// JournalDir/coordinator.journal, so a crashed coordinator can be
	// restarted with Recover. Every record but a watermark commit is
	// fsync'd before anything acts on it; watermark commits ride on the
	// next such fsync (DESIGN.md §14).
	JournalDir string
	// Recover replays the journal in JournalDir instead of starting
	// fresh: membership (names + rejoin tokens), the adopted plan
	// epochs, and the progress watermark are reconstructed, journaled
	// workers reattach under their existing tokens, and the run resumes.
	// A torn final record (the crash landed mid-append) is truncated
	// with a warning; a corrupt record fails recovery with a
	// *journal.CorruptJournalError.
	Recover bool
	// StrategyHash, when non-empty, fingerprints the strategy the plan
	// came from; it is stamped into plan records and cross-checked on
	// recovery so a journal cannot silently resume a different strategy.
	StrategyHash string
	// CoordFailAfter, when positive, crashes the coordinator after it has
	// answered that many engine stage calls — the deterministic chaos
	// seam for recovery tests and -coord-fail-after. The crash goes
	// through Die.
	CoordFailAfter int
	// Die performs the injected crash. Nil (tests) severs every worker
	// connection without a farewell and makes Serve return
	// ErrInjectedCoordCrash — from the workers' side indistinguishable
	// from a SIGKILL. cmd/llmpq-dist installs a real self-SIGKILL.
	Die func()

	// Obs is the deterministic (simulated-time) registry: engine and
	// failover families plus the dist counters whose values are pure
	// functions of the run — successful stage calls, the worker gauge,
	// injected conn drops. Safe to byte-diff across runs.
	Obs *obs.Registry
	// CtrlObs is the wall-clock control-plane registry: heartbeats,
	// lease expiries, deadline aborts, resends, frame/byte counts. Never
	// part of a diffed artifact.
	CtrlObs *obs.Registry
	Spans   *obs.SpanRecorder

	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Heartbeat <= 0 {
		out.Heartbeat = 500 * time.Millisecond
	}
	if out.Lease <= 0 {
		out.Lease = 4 * out.Heartbeat
	}
	if out.RoundDeadline < 0 {
		out.RoundDeadline = 0
	} else if out.RoundDeadline == 0 {
		out.RoundDeadline = 10 * time.Second
	}
	if out.DeadlineRetries <= 0 {
		out.DeadlineRetries = 2
	}
	if out.JoinTimeout <= 0 {
		out.JoinTimeout = 30 * time.Second
	}
	if out.HealDwell <= 0 {
		out.HealDwell = out.Lease
	}
	if out.FlapTolerance <= 0 {
		out.FlapTolerance = failover.DefaultFlapTolerance
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Result summarizes one coordinated run: the failover.Report the
// in-process controller would produce for the same transitions, plus the
// workers behind them.
type Result struct {
	failover.Report
	// LostWorker names the worker whose lease expired.
	LostWorker string
	// HealedWorkers names the rejoined workers admitted by the restore.
	HealedWorkers []string
}

// errMemberLost signals a lease expiry to a waiting stage call.
var errMemberLost = errors.New("dist: worker lease expired")

// errAwaitTimeout signals a request that outlived its generous wait.
var errAwaitTimeout = errors.New("dist: request timed out")

// errConnClosed signals the request's connection died before the
// response arrived; the caller resends after the reattach.
var errConnClosed = errors.New("dist: connection closed mid-request")

// ErrInjectedCoordCrash is returned by Serve when Config.CoordFailAfter
// fires with a nil Die hook: the in-process stand-in for a SIGKILL.
var ErrInjectedCoordCrash = errors.New("dist: injected coordinator crash")

// member is one worker: its membership state (membership.go) and the
// connection and channels the coordinator drives from it.
type member struct {
	name string

	mu         sync.Mutex
	st         state
	conn       *wire
	reattached chan struct{} // replaced on detach, closed on attach
	lostCh     chan struct{} // closed on lease expiry, replaced on rejoin
}

func newMember(name string, st state) *member {
	m := &member{name: name, lostCh: make(chan struct{})}
	m.set(st)
	return m
}

// set installs the next state; m.mu held. Crossing the lease boundary
// drops the connection (on a rejoin, one that attached after the verdict)
// and closes or replaces the lease channel. It reports a taken lease.
func (m *member) set(next state) bool {
	was, is := m.st.phase >= lost, next.phase >= lost
	m.st = next
	if was != is && m.conn != nil {
		m.conn.close()
		m.conn = nil
	}
	switch {
	case was && !is:
		m.lostCh = make(chan struct{}) // never re-close a closed channel
	case is && !was:
		close(m.lostCh)
	}
	return is && !was
}

// apply steps the member through a non-hello event under its lock and
// reports whether the step took the lease.
func (m *member) apply(ev event, cfg *Config) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, _ := step(m.st, ev, cfg)
	return m.set(next)
}

// markLost delivers the lease verdict; false when already lost.
func (m *member) markLost() bool { return m.apply(event{kind: evExpire}, nil) }

func (m *member) attach(w *wire) {
	m.mu.Lock()
	old := m.conn
	m.conn = w
	m.st, _ = step(m.st, event{kind: evConnUp, now: time.Now()}, nil)
	if m.reattached != nil {
		close(m.reattached)
		m.reattached = nil
	}
	m.mu.Unlock()
	if old != nil && old != w {
		old.close()
	}
}

// detachIf drops the connection only if w is still current — a stale
// reader racing a reattach must not clobber the fresh connection.
func (m *member) detachIf(w *wire) {
	m.unlink(w)
	w.close()
}

// unlink is detachIf leaving w open, for a failed write: w's reader still
// delivers the answers that arrived before the failure, then sees it
// itself and closes w.
func (m *member) unlink(w *wire) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn == w {
		m.conn = nil
		m.reattached = make(chan struct{})
		m.st, _ = step(m.st, event{kind: evConnDown}, nil)
	}
}

// awaitConn returns the member's live connection, waiting through a
// detach window; it fails with errMemberLost once the lease expires.
func (m *member) awaitConn(ctx context.Context) (*wire, error) {
	for {
		m.mu.Lock()
		if m.st.phase >= lost {
			m.mu.Unlock()
			return nil, errMemberLost
		}
		if m.conn != nil {
			w := m.conn
			m.mu.Unlock()
			return w, nil
		}
		re := m.reattached
		m.mu.Unlock()
		select {
		case <-re:
		case <-m.lostCh:
			return nil, errMemberLost
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

type coordinator struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	members map[string]*member
	owners  []*member // stage index → serving member
	// tokens is the mint counter, live rather than folded: a mint is
	// journaled only after its welcome is sent, so concurrent admits can
	// append out of ordinal order. Recovery seeds it from the fold's MaxOrd.
	tokens int

	joinOnce sync.Once
	joined   chan struct{}

	pmu     sync.Mutex
	pending map[uint64]chan *Message
	idSeq   atomic.Uint64

	// jnl holds the durable state: the current epoch, its payload and
	// resume point, and the Result are read only from its fold.
	jnl *coordJournal
	tap func(durable)

	// calls counts answered engine stage calls (CoordFailAfter seam).
	calls atomic.Int64
	// healArmed is set while the degraded epoch runs under Config.Rejoin:
	// the first stage call that finds a dwell-stable rejoined worker
	// swaps it false and halts the engine for the restore replan (one
	// restore per run, mirroring the at-most-one-loss invariant).
	healArmed atomic.Bool

	// Deterministic counters (sim registry).
	stageCalls *obs.Counter
	// stageWait times each collect the engine blocks in (ctrl registry).
	stageWait *obs.Histogram

	// cmu guards conns — every connection handleConn admitted and has not
	// yet released — and dead, set once the coordinator stops admitting:
	// at an injected crash, and when Serve returns.
	cmu   sync.Mutex
	conns map[*wire]struct{}
	dead  bool
}

// Serve runs one offline workload on the distributed control plane:
// wait for the membership, drive the deterministic engine with remote
// stage-time evaluation, and — on a permanent worker loss — replan on
// the survivors and resume from the token watermark. With
// Config.JournalDir the run is durable; with Config.Recover it resumes
// a crashed predecessor from its journal.
func Serve(ctx context.Context, cfg Config) (*Result, error) {
	return serve(ctx, cfg, nil)
}

// serve is Serve with a tap on the durable state after each append.
func serve(ctx context.Context, cfg Config, tap func(durable)) (*Result, error) {
	return (&coordinator{tap: tap}).serve(ctx, cfg)
}

// serve runs Serve on co, which holds only the tap so far; what co is
// left holding once it returns stays readable.
func (co *coordinator) serve(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("dist: coordinator needs a listener")
	}
	defer cfg.Listener.Close() //llmpq:allow(errdrop): shutdown path; a listener close error has no one left to tell
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Spec == nil || cfg.Plan == nil {
		return nil, fmt.Errorf("dist: coordinator needs a spec and plan")
	}
	if err := cfg.Plan.Validate(cfg.Spec); err != nil {
		return nil, err
	}
	if cfg.Recover && cfg.JournalDir == "" {
		return nil, fmt.Errorf("dist: recovery needs a journal directory")
	}
	cfg = cfg.withDefaults()

	co.cfg = cfg
	co.members = make(map[string]*member)
	co.joined = make(chan struct{})
	co.pending = make(map[uint64]chan *Message)
	co.stageCalls = cfg.Obs.Counter("llmpq_dist_stage_calls_total")
	co.stageWait = cfg.CtrlObs.Histogram("llmpq_dist_stage_wait_seconds", obs.TimeBuckets())
	if err := co.openJournal(); err != nil {
		return nil, err
	}
	defer co.jnl.close()
	co.ctx, co.cancel = context.WithCancel(ctx)
	defer co.cancel()
	defer co.closeConns()
	go co.acceptLoop()
	go co.sweeper()

	if err := co.awaitMembership(); err != nil {
		return nil, err
	}
	live := co.membersWhere(state.serving)
	if len(live) == 0 {
		return nil, fmt.Errorf("dist: no live workers after the membership barrier")
	}
	curPlan := co.jnl.state().current().Payload.Plan
	co.assignStages(curPlan, live)
	co.setWorkersGauge(len(live))
	cfg.Logf("membership complete: %d workers, %d stages", len(live), curPlan.NumStages())

	res, err := co.run()
	switch {
	case errors.Is(err, ErrInjectedCoordCrash):
		return nil, err
	case err != nil:
		co.shutdown("failed")
		return nil, err
	}
	co.shutdown("done")
	return res, nil
}

// openJournal starts the durable state adopting epoch 0, written when
// Config.JournalDir is set, or under Recover folds and continues the journal.
func (co *coordinator) openJournal() error {
	path := filepath.Join(co.cfg.JournalDir, JournalFile)
	if !co.cfg.Recover {
		var w *journal.Writer
		if co.cfg.JournalDir != "" {
			if err := os.MkdirAll(co.cfg.JournalDir, 0o755); err != nil {
				return fmt.Errorf("dist: journal dir: %w", err)
			}
			var err error
			if w, err = journal.Create(path); err != nil {
				return err
			}
		}
		co.jnl = newCoordJournal(w, durable{}, co.cfg.CtrlObs, co.tap)
		return co.jnl.append(&Record{Type: RecPlan, Plan: co.planRecord(nil, nil)})
	}
	w, rep, err := journal.Continue(path)
	if err != nil {
		return fmt.Errorf("dist: recover: %w", err)
	}
	st, err := DecodeState(rep.Records)
	if err != nil {
		_ = w.Close() //llmpq:allow(errdrop): recovery is failing anyway; the decode error is the one to report
		return fmt.Errorf("dist: recover: %w", err)
	}
	co.cfg.CtrlObs.Counter("llmpq_journal_replayed_records").Add(float64(st.Records))
	if rep.TornBytes > 0 {
		co.ctrlInc("llmpq_journal_torn_tail_total")
		co.cfg.Logf("journal: truncated a %d-byte torn tail (the crash landed mid-append)", rep.TornBytes)
	}
	if err := co.seedMembers(st); err != nil {
		_ = w.Close() //llmpq:allow(errdrop): recovery is failing anyway; the seed error is the one to report
		return err
	}
	co.jnl = newCoordJournal(w, *st, co.cfg.CtrlObs, co.tap)
	err = co.jnl.append(&Record{Type: RecRecover, Recover: &RecoverRecord{Replayed: st.Records, TornBytes: rep.TornBytes}})
	co.cfg.Logf("recovered journal: %d records, epoch %d, %d members, watermark round %d",
		st.Records, st.current().Epoch, len(st.Members), st.StartRound)
	return err
}

// planRecord adopts the configured strategy as epoch 0 (nil out), or out's
// plan and its transition for workers as the next epoch, with the
// solve-cache provenance of the moment.
func (co *coordinator) planRecord(out *failover.Outcome, workers []string) *PlanRecord {
	pr := &PlanRecord{Payload: NewPlanPayload(co.cfg.Spec, co.cfg.Plan), StrategyHash: co.cfg.StrategyHash}
	if out != nil {
		pr.Epoch = co.jnl.state().current().Epoch + 1
		pr.Payload = NewPlanPayload(out.Degraded, out.Plan)
		pr.StartRound, pr.DurableTokens = out.StartRound, out.DurableTokens
		pr.Transition = &TransitionRecord{Lost: out.Lost, Halt: out.Halt, Workers: workers, Devices: out.LostDevices,
			MovedLayers: out.MovedLayers, Migration: out.Migration}
		if out.Halt != nil {
			pr.Transition.Devices = out.RestoredDevices
		}
	}
	if c := co.cfg.Spec.Cache; c != nil {
		stats := c.Stats()
		pr.SolveCache = true
		pr.CacheHits, pr.CacheMisses = stats.Hits, stats.Misses
	}
	return pr
}

// seedMembers refuses a replayed journal this configuration cannot
// resume, then seeds each journaled worker under its latest token, lost
// while the epochs leave it lost. (Flap counts are not journaled.)
func (co *coordinator) seedMembers(st *durable) error {
	if st.Done {
		return fmt.Errorf("dist: recover: the journal records a completed run; nothing to resume")
	}
	first := st.Plans[0]
	if co.cfg.StrategyHash != "" && first.StrategyHash != "" && first.StrategyHash != co.cfg.StrategyHash {
		return fmt.Errorf("dist: recover: journal strategy %s does not match configured strategy %s",
			first.StrategyHash, co.cfg.StrategyHash)
	}
	// The journaled epoch-0 payload must be byte-identical to the one
	// this configuration derives: recovery resumes a run, it never
	// adopts a foreign plan.
	want, werr := json.Marshal(NewPlanPayload(co.cfg.Spec, co.cfg.Plan))
	got, gerr := json.Marshal(first.Payload)
	if err := errors.Join(werr, gerr); err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("dist: recover: the journaled plan does not match the configured strategy")
	}
	if len(st.Members) > co.cfg.Workers {
		return fmt.Errorf("dist: recover: journal holds %d members, config allows %d", len(st.Members), co.cfg.Workers)
	}
	now := time.Now()
	for _, mr := range st.Members {
		s := state{phase: detached, token: mr.Token, ord: mr.Ord, lastHeard: now}
		if slices.Contains(st.Lost, mr.Name) {
			s.phase = lost
		}
		co.members[mr.Name] = newMember(mr.Name, s)
	}
	co.tokens = st.MaxOrd
	return nil
}

// awaitMembership runs the join barrier. On a fresh start it demands the
// full membership attached at once; on recovery, journaled members that
// never reattach within the window are declared lost (the lease verdict,
// delivered at the barrier) and the run proceeds on the ones that came
// back — the failover path heals the difference.
func (co *coordinator) awaitMembership() error {
	joinTimer := time.NewTimer(co.cfg.JoinTimeout)
	defer joinTimer.Stop()
	select {
	case <-co.joined:
		return nil
	case <-joinTimer.C:
		if co.cfg.Recover && len(co.membersWhere(state.attached)) >= 1 {
			for _, m := range co.membersWhere(state.absent) {
				if m.markLost() {
					co.ctrlInc("llmpq_dist_lease_expiries_total")
					co.cfg.Logf("worker %s did not reattach within %s; declared lost", m.name, co.cfg.JoinTimeout)
				}
			}
			// Open the barrier so the sweeper starts enforcing leases.
			co.joinOnce.Do(func() { close(co.joined) })
			return nil
		}
		return fmt.Errorf("dist: only %d of %d workers joined within %s",
			len(co.membersWhere(state.attached)), co.cfg.Workers, co.cfg.JoinTimeout)
	case <-co.ctx.Done():
		return co.ctx.Err()
	}
}

// leg is what the epoch loop carries between engine runs: the Result, the
// next engine's start round and credited tokens, and cur, the running
// epoch's transition. cur stays live because a restore diffs layer homes
// against cur.OldID, which is not journaled; a recovered coordinator
// never re-arms the heal, so it starts without one.
type leg struct {
	res         Result
	cur         *failover.Outcome
	start, base int
}

// leg snapshots the fold after an adoption, and at the start of the run.
func (co *coordinator) leg(cur *failover.Outcome) leg {
	st := co.jnl.state()
	return leg{res: st.Result, cur: cur, start: st.StartRound, base: st.BaseDurable}
}

// run is the coordinator's epoch loop. Each pass runs the current epoch's
// plan from its start round with remote stage-time evaluation. A
// permanent worker loss journals, re-solves on the survivors and
// reconfigures them (shrink); a restore halt replans back onto the healed
// workers, or continues degraded when none remains (grow); completion
// seals the journal. Like the chaos schedules, a run heals at most one
// loss and one restore.
//
// A fresh run and the recovery of a crash that predates any replan both
// start at epoch 0 and round 0: re-executing the deterministic engine is
// cheap in virtual time and is the only way the recovered artifacts come
// out byte-identical to a run that never crashed. A crash after a replan
// cannot be re-executed (the loss instant was wall-clock data), so the
// loop starts in the folded epoch at its resume point, the journaled
// transitions are re-exported (failover.Observe), and the heal is not
// re-armed (DESIGN.md §14).
func (co *coordinator) run() (*Result, error) {
	cfg := co.cfg
	for _, pr := range co.jnl.state().Plans[1:] {
		failover.Observe(cfg.Obs, cfg.Spans, pr.outcome())
	}
	l := co.leg(nil)
	armed := false
	for {
		cur := co.jnl.state().current()
		spec, plan := *cfg.Spec, cfg.Plan
		if cur.Epoch > 0 {
			spec.Cluster, plan = cur.Payload.Cluster, cur.Payload.Plan
		}
		eng, err := rt.NewEngine(&spec, plan, cfg.Timer)
		if err != nil {
			return nil, err
		}
		eng.StartRound = l.start
		// A fresh buffer per engine run: stage indices are reused across
		// epochs on other devices, so a time fetched under one plan must
		// never answer a call under the next. The batches it still has
		// out when the run ends are dropped with it.
		co.mu.Lock()
		buf := &stageBuffer{co: co, plan: plan, owners: co.owners, batch: spec.Work.GlobalBatch, last: spec.Work.Generate - 1,
			times: map[stageKey][]float64{}, flights: map[*member][]*flight{}}
		co.mu.Unlock()
		eng.StageTimer = buf.stageTime
		eng.OnRoundCommit = co.onRoundCommit
		eng.Obs, eng.Spans = cfg.Obs, cfg.Spans
		co.healArmed.Store(armed)
		stats, err := eng.Run()
		co.healArmed.Store(false)
		for _, fs := range buf.flights {
			for _, f := range fs {
				co.unregister(f.id)
			}
		}
		var lost *rt.DeviceLostError
		var halt *rt.RestoreHaltError
		switch {
		case err == nil:
			l.res.Finish(stats, l.base)
			// Seal the journal, surfacing any error the run accumulated: a
			// silently lossy journal must fail the run.
			return &l.res, co.jnl.append(&Record{Type: RecDone})
		case errors.Is(err, ErrInjectedCoordCrash):
			return nil, err
		case errors.As(err, &lost) && !l.res.Replanned:
			if l, err = co.shrink(lost); err != nil {
				return nil, err
			}
			// Arm the heal for the first degraded epoch: the lost worker may
			// rejoin mid-epoch, and once its lease has held for the dwell
			// the next stage call halts this engine for the restore.
			armed = cfg.Rejoin
		case errors.As(err, &halt) && armed:
			if l, err = co.grow(l, halt); err != nil {
				return nil, err
			}
			armed = false
		default:
			return nil, fmt.Errorf("dist: epoch %d run failed: %w", cur.Epoch, err)
		}
	}
}

// shrink heals a permanent worker loss. The worker is the failure domain,
// not the stage: every device it served leaves in this one transition,
// which re-solves and re-ships weights once instead of cascading through
// a failover cycle per stage.
func (co *coordinator) shrink(lost *rt.DeviceLostError) (leg, error) {
	cfg := co.cfg
	drop := []int{lost.Device}
	var name string
	co.mu.Lock()
	if lost.Stage < len(co.owners) {
		dead := co.owners[lost.Stage]
		name = dead.name
		for j, m := range co.owners {
			if m == dead && cfg.Plan.Order[j] != lost.Device {
				drop = append(drop, cfg.Plan.Order[j])
			}
		}
	}
	co.mu.Unlock()
	cfg.Logf("worker %s lost (stage %d, devices %v) at %.3fs; replanning on survivors",
		name, lost.Stage, drop, lost.AtSec)
	out, err := failover.Transition(cfg.Spec, cfg.Plan, cfg.Timer, nil, failover.Members(cfg.Spec.Cluster, drop...), lost, cfg.Obs, cfg.CtrlObs, cfg.Spans)
	if err != nil {
		return leg{}, err
	}
	return co.adopt(out, []string{name}, nil)
}

// grow answers the degraded epoch's restore halt: replan capacity back
// onto the healed workers' devices (a full restore re-derives the
// pre-loss plan).
// When the healed worker vanished again between the halt and the replan,
// the degraded epoch continues from the halt watermark instead. That
// appends nothing, so the continuation's start round stays local to the
// run.
func (co *coordinator) grow(l leg, halt *rt.RestoreHaltError) (leg, error) {
	cfg := co.cfg
	healed := co.healedMembers()
	if len(healed) == 0 {
		cfg.Logf("restore halt at %.3fs found no stable healed worker; continuing degraded", halt.AtSec)
		l.res.RestoreHalt = halt
		l.start, l.base = halt.Watermark, halt.DurableTokens
		return l, nil
	}
	out, err := failover.Transition(cfg.Spec, cfg.Plan, cfg.Timer, l.cur, failover.Members(cfg.Spec.Cluster), halt, cfg.Obs, cfg.CtrlObs, cfg.Spans)
	if err != nil {
		return l, err
	}
	var names []string
	for _, m := range healed {
		names = append(names, m.name)
	}
	return co.adopt(out, names, healed)
}

// adopt makes a transition's plan the next epoch. The epoch and the
// transition behind it are journaled as one write-ahead record, before
// any worker acts on it: the transition's instant (a lease or dwell
// expiry) is wall-clock data a recovered coordinator cannot re-derive.
// workers names the lost worker or the healed ones. The healed members
// complete their join barrier (the new plan admits them back to serving),
// the other serving members follow, and the returned leg runs the epoch.
func (co *coordinator) adopt(out *failover.Outcome, workers []string, healed []*member) (leg, error) {
	others := co.membersWhere(state.serving)
	serving := slices.Concat(others, healed)
	sort.Slice(serving, func(i, j int) bool { return serving[i].name < serving[j].name })
	if len(serving) == 0 {
		return leg{}, fmt.Errorf("dist: no surviving workers to resume on")
	}
	pr := co.planRecord(out, workers)
	if err := co.jnl.append(&Record{Type: RecPlan, Plan: pr}); err != nil {
		return leg{}, err
	}
	for _, m := range slices.Concat(healed, others) {
		if err := co.reconfigure(m, pr.Payload); err != nil {
			return leg{}, fmt.Errorf("dist: reconfigure %s: %w", m.name, err)
		}
		m.apply(event{kind: evPromote}, nil) // a no-op for the others
	}
	co.assignStages(out.Plan, serving)
	co.setWorkersGauge(len(serving))
	co.cfg.Logf("epoch %d: %d stages on %d workers (healed %d), %d layers migrate (%.0f bytes), resume round %d",
		pr.Epoch, out.Plan.NumStages(), len(serving), len(healed), out.MovedLayers, out.Migration.TotalBytes, out.StartRound)
	return co.leg(out), nil
}

// onRoundCommit is the Engine.OnRoundCommit callback: journal every
// watermark advance so recovery can restore progress exactly.
func (co *coordinator) onRoundCommit(watermark, durable, runTokens int) {
	co.jnl.append(&Record{Type: RecRound, Round: &RoundRecord{
		Epoch: co.jnl.state().current().Epoch, Watermark: watermark, DurableTokens: durable,
		PrefillDone: true, RunTokens: runTokens,
	}})
}

// crash simulates sudden coordinator death for CoordFailAfter, leaving
// the journal exactly as a SIGKILL would (no Done record). Like a dying
// process it stops listening and refuses admission before it severs
// every connection, so no worker can redial into the dead coordinator in
// between. With a Die hook the process never returns from it.
func (co *coordinator) crash() {
	co.cfg.Logf("injected coordinator crash after %d stage calls", co.cfg.CoordFailAfter)
	if co.cfg.Die != nil {
		co.cfg.Die()
	}
	_ = co.cfg.Listener.Close() //llmpq:allow(errdrop): a dying coordinator has no one left to tell
	co.closeConns()
	co.jnl.close()
	co.cancel()
}

// track registers a connection handleConn is admitting; false means the
// coordinator is dead and the connection must be dropped.
func (co *coordinator) track(w *wire) bool {
	co.cmu.Lock()
	defer co.cmu.Unlock()
	if co.dead {
		return false
	}
	if co.conns == nil {
		co.conns = make(map[*wire]struct{})
	}
	co.conns[w] = struct{}{}
	return true
}

func (co *coordinator) untrack(w *wire) {
	co.cmu.Lock()
	delete(co.conns, w)
	co.cmu.Unlock()
}

// closeConns refuses further admission and closes every tracked
// connection: a worker must never keep heartbeating a coordinator that
// is gone.
func (co *coordinator) closeConns() {
	co.cmu.Lock()
	co.dead = true
	conns := co.conns
	co.conns = nil
	co.cmu.Unlock()
	for w := range conns {
		w.close()
	}
}

// stageKey names one task; its stage time is a pure function of these
// fields under a plan.
type stageKey struct {
	stage, batch, round int
	prefill             bool
}

// passesInFlight is how many passes stageBuffer keeps sent ahead of the
// engine: the missed pass and the seven after it. Decode round r of a
// micro-batch starts only once round r−1 of it has left the last stage,
// so at the first miss of pass r every worker has answered pass r−1, and
// no worker ever holds more than this many unanswered batches. On
// dist-journaled (cluster 3, 2 vCPU) the median job p50 over depths 2,
// 4, 8, 16 and the whole run was 15.1, 11.8, 10.6, 10.7 and 10.2 ms;
// past 8 the gain is noise, while a deeper window lengthens what a
// survivor evaluates for nothing after a loss and what each batch's
// deadline must cover.
const passesInFlight = 8

// stageBuffer answers one engine run's stage calls. A pass — prefill
// (pass 0) or decode round r — goes to every worker on its first miss,
// with the passes after it up to passesInFlight, one stage batch apiece;
// a worker's batch is collected on a miss at one of its own stages, and
// waits here.
type stageBuffer struct {
	co     *coordinator
	plan   *assigner.Plan
	owners []*member // stage index → serving member
	batch  int       // the global batch the passes split
	last   int       // the last decode round: Generate − 1
	next   int       // the first pass not yet sent
	times  map[stageKey][]float64
	// flights holds each worker's uncollected batches in pass order.
	flights map[*member][]*flight
}

// flight is one stage batch out to its owner under a pending id. w, the
// connection it went out on, and ch are nil until it goes out, and again
// once collect knows it must go again.
type flight struct {
	req *StageBatch
	id  uint64
	ch  chan *Message
	w   *wire
}

// stageTime is the Engine.StageTimer callback: answer one task from the
// buffer. A miss sends the task's pass and the passesInFlight−1 after it
// unless they are out, and collects the batch of the stage's owner. While
// the degraded epoch runs with heal armed, the first call that finds a
// dwell-stable rejoined worker instead halts the engine with a
// StageRestoreError so the restore replan can bring it back.
func (b *stageBuffer) stageTime(stage, batch, round int, prefill bool) (float64, error) {
	co := b.co
	if co.healArmed.Load() && len(co.healedMembers()) > 0 && co.healArmed.CompareAndSwap(true, false) {
		return 0, &rt.StageRestoreError{}
	}
	k := stageKey{stage, batch, round, prefill}
	if len(b.times[k]) == 0 {
		pass := round
		if prefill {
			pass = 0
		}
		for q := max(pass, b.next); q <= min(pass+passesInFlight-1, b.last); q++ {
			b.send(q)
		}
		m := b.owners[stage]
		i := slices.IndexFunc(b.flights[m], func(f *flight) bool { return f.req.Round == round && f.req.Prefill == prefill })
		if i < 0 {
			return 0, fmt.Errorf("dist: worker %s has no batch out for stage %d's pass %d", m.name, stage, pass)
		}
		if err := b.collect(m, b.flights[m][i], stage); err != nil {
			return 0, err
		}
	}
	sec := b.times[k][0]
	b.times[k] = b.times[k][1:]
	co.stageCalls.Inc()
	// Injected-crash seam: dying on the Nth answered call is deterministic
	// (the engine issues stage calls in virtual-time order), so recovery
	// tests can crash at a reproducible point.
	if n := co.cfg.CoordFailAfter; n > 0 && co.calls.Add(1) == int64(n) {
		co.crash()
		return 0, ErrInjectedCoordCrash
	}
	return sec, nil
}

// send fans pass q out: one batch per worker — every micro-batch of the
// pass on every stage it owns — flushed to its connection if it has one.
func (b *stageBuffer) send(q int) {
	b.next = q + 1
	size := b.plan.DecodeMB
	if q == 0 {
		size = b.plan.PrefillMB
	}
	for j, m := range b.owners {
		if slices.Index(b.owners, m) < j {
			continue // m's batch holds stage j already
		}
		req := &StageBatch{Round: q, Prefill: q == 0, Batches: rt.MicroBatches(b.batch, size)}
		for i, o := range b.owners {
			if o == m {
				req.Stages = append(req.Stages, i)
			}
		}
		b.flights[m] = append(b.flights[m], &flight{req: req})
		b.flush(m)
	}
}

// flush puts every batch of m's that is neither out on m's connection nor
// answered onto it, in pass order, each under a fresh id and deadline. A
// failed write detaches m and leaves the rest to collect, but leaves the
// connection open to its reader: a worker that died mid-batch may have
// answers to earlier passes waiting unread there.
func (b *stageBuffer) flush(m *member) {
	co := b.co
	m.mu.Lock()
	w := m.conn
	m.mu.Unlock()
	for _, f := range b.flights[m] {
		if w == nil || f.w == w || len(f.ch) > 0 {
			continue
		}
		co.unregister(f.id) // the id it went out under on a dead connection
		f.id = co.idSeq.Add(1)
		f.ch = co.register(f.id)
		if co.cfg.RoundDeadline > 0 {
			f.req.DeadlineUnixNano = time.Now().Add(co.cfg.RoundDeadline).UnixNano()
		}
		if err := w.send(&Message{Type: MsgStageBatch, ID: f.id, StageBatch: f.req}); err != nil {
			co.unregister(f.id)
			f.w, f.ch = nil, nil
			m.unlink(w)
			co.ctrlInc("llmpq_dist_stage_resends_total")
			return
		}
		f.w = w
	}
}

// collect waits for f, m's batch, and buffers its answers. It survives
// detach windows (the batch goes again after the reattach) and deadline
// aborts (again up to DeadlineRetries times), and turns a lease expiry
// into a StageLostError for stage, the engine's call.
func (b *stageBuffer) collect(m *member, f *flight, stage int) error {
	co := b.co
	if co.stageWait != nil {
		defer func(start time.Time) { co.stageWait.Observe(time.Since(start).Seconds()) }(time.Now())
	}
	aborts := 0
	for {
		if f.w == nil {
			_, err := m.awaitConn(co.ctx)
			if errors.Is(err, errMemberLost) {
				return &rt.StageLostError{Stage: stage}
			}
			if err != nil {
				return err
			}
			if b.flush(m); f.w == nil {
				continue
			}
		}
		// The response must arrive within deadline + lease: either the
		// worker answers (possibly with an abort), the connection dies
		// (resend after reattach), or the lease expires.
		msg, err := co.await(f.id, f.ch, m, f.w, co.cfg.RoundDeadline+co.cfg.Lease)
		switch {
		case errors.Is(err, errMemberLost):
			return &rt.StageLostError{Stage: stage}
		case errors.Is(err, errConnClosed):
			f.w, f.ch = nil, nil
			co.ctrlInc("llmpq_dist_stage_resends_total")
			continue
		case errors.Is(err, errAwaitTimeout):
			// Conn is up but the worker went mute; force a reconnect and
			// charge a deadline strike.
			m.detachIf(f.w)
		case err != nil:
			return err
		}
		if err != nil || msg.StageBatchResult.Aborted {
			f.w, f.ch = nil, nil
			co.ctrlInc("llmpq_dist_deadline_aborts_total")
			if aborts++; aborts > co.cfg.DeadlineRetries {
				return fmt.Errorf("dist: stage %d batch exceeded its %s deadline %d times", stage, co.cfg.RoundDeadline, aborts)
			}
			continue
		}
		req, res := f.req, msg.StageBatchResult
		if res.Err != "" || len(res.Seconds) != req.tasks() {
			return fmt.Errorf("dist: worker %s stage %d: %d of %d times (%s)", m.name, stage, len(res.Seconds), req.tasks(), res.Err)
		}
		for i, sec := range res.Seconds {
			t := stageKey{req.Stages[i/len(req.Batches)], req.Batches[i%len(req.Batches)], req.Round, req.Prefill}
			b.times[t] = append(b.times[t], sec)
		}
		b.flights[m] = slices.DeleteFunc(b.flights[m], func(g *flight) bool { return g == f })
		return nil
	}
}

// await blocks until the pending request id resolves, the request's
// connection dies, the member is lost, the wait elapses, or the
// coordinator stops. An answer that arrived first is returned even when
// the other case is ready too.
func (co *coordinator) await(id uint64, ch chan *Message, m *member, w *wire, wait time.Duration) (*Message, error) {
	var tC <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		tC = t.C
	}
	var err error
	select {
	case msg := <-ch:
		return msg, nil
	case <-w.closed():
		err = errConnClosed
	case <-m.lostCh:
		err = errMemberLost
	case <-tC:
		err = errAwaitTimeout
	case <-co.ctx.Done():
		err = co.ctx.Err()
	}
	select {
	case msg := <-ch:
		return msg, nil
	default:
		co.unregister(id)
		return nil, err
	}
}

// reconfigure ships a new plan payload to one member and waits for the
// acknowledgement, resending across transient disconnects.
func (co *coordinator) reconfigure(m *member, payload *PlanPayload) error {
	for {
		w, err := m.awaitConn(co.ctx)
		if err != nil {
			return err
		}
		id := co.idSeq.Add(1)
		ch := co.register(id)
		if err := w.send(&Message{Type: MsgReconfigure, ID: id, Reconfigure: payload}); err != nil {
			co.unregister(id)
			m.detachIf(w)
			continue
		}
		_, err = co.await(id, ch, m, w, co.cfg.RoundDeadline+co.cfg.Lease)
		if errors.Is(err, errConnClosed) {
			continue
		}
		return err
	}
}

func (co *coordinator) register(id uint64) chan *Message {
	ch := make(chan *Message, 1)
	co.pmu.Lock()
	co.pending[id] = ch
	co.pmu.Unlock()
	return ch
}

func (co *coordinator) unregister(id uint64) {
	co.pmu.Lock()
	delete(co.pending, id)
	co.pmu.Unlock()
}

// route delivers a response frame to its waiting request; late
// responses to abandoned ids are dropped.
func (co *coordinator) route(msg *Message) {
	co.pmu.Lock()
	ch := co.pending[msg.ID]
	delete(co.pending, msg.ID)
	co.pmu.Unlock()
	if ch != nil {
		ch <- msg
	}
}

// acceptLoop admits connections until the coordinator stops.
func (co *coordinator) acceptLoop() {
	for {
		c, err := co.cfg.Listener.Accept()
		if err != nil {
			if co.ctx.Err() != nil {
				return
			}
			// The listener may surface transient errors (including
			// injected partitions); keep accepting until shutdown.
			select {
			case <-co.ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		go co.handleConn(c)
	}
}

// handleConn runs the handshake and then the per-connection read loop.
func (co *coordinator) handleConn(c net.Conn) {
	w := newWire(c, co.cfg.CtrlObs)
	if !co.track(w) {
		w.close()
		return
	}
	defer co.untrack(w)
	_ = c.SetReadDeadline(time.Now().Add(co.cfg.Lease)) //llmpq:allow(errdrop): a failed deadline surfaces as the recv error on the next line
	msg, err := w.recv()
	_ = c.SetReadDeadline(time.Time{}) //llmpq:allow(errdrop): clearing a deadline on a dying conn can only fail harmlessly
	if err != nil || msg.Type != MsgHello {
		w.close()
		return
	}
	h := msg.Hello
	if h.Version != ProtocolVersion {
		//llmpq:allow(errdrop): best-effort courtesy reject; the connection closes either way
		_ = w.send(&Message{Type: MsgReject, Reject: &Reject{
			Reason: fmt.Sprintf("protocol version %d, coordinator speaks %d", h.Version, ProtocolVersion)}})
		w.close()
		return
	}
	m, rec, reject, retryable := co.admit(h)
	if reject != "" {
		//llmpq:allow(errdrop): best-effort courtesy reject; the connection closes either way
		_ = w.send(&Message{Type: MsgReject, Reject: &Reject{Reason: reject, Retryable: retryable}})
		w.close()
		return
	}
	token := h.Token // admitted by its own token unless one was minted
	if rec != nil {
		token = rec.Token
	}
	welcome := &Welcome{
		Token:        token,
		HeartbeatSec: co.cfg.Heartbeat.Seconds(),
		LeaseSec:     co.cfg.Lease.Seconds(),
		Plan:         co.jnl.state().current().Payload,
	}
	if err := w.send(&Message{Type: MsgWelcome, Welcome: welcome}); err != nil {
		w.close()
		return
	}
	// Attach only once the welcome went out: an attached connection is
	// open to stage calls, and a request that overtook the welcome would
	// fail the worker's handshake and cost it a reconnect.
	m.attach(w)
	// Journal the mint only after the welcome went out: recovery must
	// never hold a worker to a token it was never offered.
	if rec != nil {
		co.jnl.append(&Record{Type: RecMember, Member: rec})
	}
	if h.Token != "" {
		co.ctrlInc("llmpq_dist_reattach_total")
	}
	co.maybeJoined()
	co.cfg.Logf("worker %s attached", m.name)

	for {
		msg, err := w.recv()
		if err != nil {
			m.detachIf(w)
			co.cfg.Logf("worker %s detached: %v", m.name, err)
			return
		}
		// Any frame after the welcome renews the lease and proves the worker
		// got past the handshake: from here the token is the only key.
		m.apply(event{kind: evFrame, now: time.Now()}, nil)
		switch msg.Type {
		case MsgHeartbeat:
			co.ctrlInc("llmpq_dist_heartbeats_received_total")
		case MsgStageBatchResult, MsgReconfigureOK:
			co.route(msg)
		case MsgBye:
			m.detachIf(w)
			return
		default:
			// Unknown frames renew the lease and are otherwise ignored —
			// forward compatibility within a protocol version.
		}
	}
}

// admit applies step's verdict on a hello: the member plus, when a token
// was minted, the MemberRecord to journal once the welcome is delivered;
// or a rejection and whether it is retryable.
func (co *coordinator) admit(h *Hello) (*member, *MemberRecord, string, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	m := co.members[h.Name]
	if m == nil {
		m = newMember(h.Name, state{})
	}
	m.mu.Lock()
	prev := m.st
	next, v := step(prev, event{kind: evHello, now: time.Now(), hello: h, full: len(co.members) >= co.cfg.Workers}, &co.cfg)
	var rec *MemberRecord
	if v.mint {
		co.tokens++
		next.token, next.ord = fmt.Sprintf("lease-%d-%s", co.tokens, h.Name), co.tokens
		rec = &MemberRecord{Name: h.Name, Token: next.token, Ord: next.ord}
	}
	m.set(next)
	m.mu.Unlock()
	switch {
	case next.phase == quarantined && prev.phase != quarantined:
		co.ctrlInc("llmpq_heal_flap_quarantines_total")
		co.cfg.Logf("worker %s quarantined: %d lease losses exceed the flap tolerance %d", h.Name, next.flaps, co.cfg.FlapTolerance)
	case prev.phase == lost && next.live():
		co.ctrlInc("llmpq_heal_rejoins_total")
		co.cfg.Logf("worker %s rejoined (loss %d of %d tolerated); heal dwell %s starts",
			h.Name, next.flaps, co.cfg.FlapTolerance, co.cfg.HealDwell)
	}
	if v.reason != "" {
		return nil, nil, v.reason, v.retry
	}
	co.members[h.Name] = m
	return m, rec, "", false
}

// maybeJoined closes the join barrier once the membership is complete
// and every not-lost member holds a live connection. Recovery seeds the
// membership from the journal, so completeness there means "everyone the
// journal knows", not the configured worker count.
func (co *coordinator) maybeJoined() {
	co.mu.Lock()
	short := !co.cfg.Recover && len(co.members) < co.cfg.Workers
	co.mu.Unlock()
	if short || len(co.membersWhere(state.absent)) > 0 {
		return
	}
	co.joinOnce.Do(func() { close(co.joined) })
}

// membersWhere snapshots the membership and returns, sorted by name, the
// members whose state keep accepts.
func (co *coordinator) membersWhere(keep func(s state) bool) []*member {
	co.mu.Lock()
	var out []*member
	for _, m := range co.members {
		m.mu.Lock()
		if keep(m.st) {
			out = append(out, m)
		}
		m.mu.Unlock()
	}
	co.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sweeper expires leases: any member silent past the lease is declared
// permanently lost, which unblocks waiting stage calls with
// StageLostError and drives the failover path.
func (co *coordinator) sweeper() {
	tick := time.NewTicker(co.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-tick.C:
		}
		// Leases start at the join barrier: a recovered membership must
		// get its full reattach window before the sweeper may expire it.
		select {
		case <-co.joined:
		default:
			continue
		}
		now := time.Now()
		for _, m := range co.membersWhere(state.live) {
			if m.apply(event{kind: evLease, now: now}, &co.cfg) {
				co.ctrlInc("llmpq_dist_lease_expiries_total")
				co.cfg.Logf("worker %s lease expired (silent > %s)", m.name, co.cfg.Lease)
			}
		}
	}
}

// assignStages maps the plan's stages round-robin over the members in
// name order — a pure function of (plan, membership), so every
// coordinator restart with the same workers reproduces it.
func (co *coordinator) assignStages(p *assigner.Plan, members []*member) {
	owners := make([]*member, p.NumStages())
	for j := range owners {
		owners[j] = members[j%len(members)]
	}
	co.mu.Lock()
	co.owners = owners
	co.mu.Unlock()
}

// healedMembers returns the rejoined members whose lease held for the dwell.
func (co *coordinator) healedMembers() []*member {
	now := time.Now()
	return co.membersWhere(func(s state) bool { return s.healed(now, co.cfg.HealDwell) })
}

// shutdown says goodbye to every serving worker, gives them up to a
// lease, all told, to hang up, and stops the loops; Serve then closes
// whatever is left. Closing first would race a worker's in-flight
// heartbeat: the reset connection fails before the worker reads its Bye,
// and it redials a coordinator that is gone.
func (co *coordinator) shutdown(reason string) {
	defer co.cancel()
	grace, stop := context.WithTimeout(co.ctx, co.cfg.Lease)
	defer stop()
	var wg sync.WaitGroup
	for _, m := range co.membersWhere(state.serving) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.bye(grace, m, reason)
		}()
	}
	wg.Wait()
}

// bye tells m goodbye and waits for it to hang up. A worker detached at
// this point — its connection dropped after its last answer was read —
// is mid-reattach: it is told on the connection it comes back on, or it
// would redial a coordinator that is gone until its retry budget runs
// out. A farewell that fails to send detaches m the same way.
func (co *coordinator) bye(grace context.Context, m *member, reason string) {
	for {
		w, err := m.awaitConn(grace)
		if err != nil {
			return // lost, or out of grace
		}
		if w.send(&Message{Type: MsgBye, Bye: &Bye{Reason: reason}}) != nil {
			m.detachIf(w)
			continue
		}
		select {
		case <-w.closed():
		case <-grace.Done():
		}
		return
	}
}

func (co *coordinator) setWorkersGauge(n int) {
	co.cfg.Obs.Gauge("llmpq_dist_workers").Set(float64(n))
}

func (co *coordinator) ctrlInc(name string) {
	co.cfg.CtrlObs.Counter(name).Inc()
}
