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
	// welcome) and the period of the coordinator's lease sweeps. Default
	// 500ms.
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
	// waited on for deadline + Lease. Either failure sends the batch
	// again, twice at most, before the run fails. 0 means the default,
	// 10s; a negative value disables the deadline, and a batch then has a
	// Lease to answer.
	RoundDeadline time.Duration
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

// deadlineRetries is how many times the coordinator sends one batch
// again after an abort or an unanswered wait before it fails the run.
const deadlineRetries = 2

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

// errMemberLost signals a lease expiry to a waiting request.
var errMemberLost = errors.New("dist: worker lease expired")

// errAwaitTimeout signals a wait that outlived its deadline.
var errAwaitTimeout = errors.New("dist: request timed out")

// ErrInjectedCoordCrash is returned by Serve when Config.CoordFailAfter
// fires with a nil Die hook: the in-process stand-in for a SIGKILL.
var ErrInjectedCoordCrash = errors.New("dist: injected coordinator crash")

// link is the coordinator's end of one worker connection: a *wire, or a
// fake in the socket-free tests.
type link interface {
	send(*Message) error
	close()
}

// netEvent is one socket result as a connection's reader posts it: the
// connection was accepted, a frame was read from it, or the read error
// that ends it. A connection's events arrive in that order.
type netEvent struct {
	l        link
	accepted bool
	msg      *Message
	err      error
}

// member is one worker: its membership state (membership.go) and the
// connection it is attached on, held exactly while it is attached.
type member struct {
	name string
	st   state
	conn link
}

func (m *member) gone() bool { return m.st.phase >= lost }

// unlink detaches m if l is its connection, leaving l open: after a
// failed write, l's reader still delivers the answers that arrived
// before the failure, then reads the failure itself.
func (m *member) unlink(l link) {
	if m.conn == l {
		m.conn = nil
		m.st, _ = step(m.st, event{kind: evConnDown}, nil)
	}
}

// coordinator is owned by the goroutine that calls Serve. It runs the
// engine, and whenever it waits it pumps the events the connection
// readers post (wait); no other goroutine reads or writes these fields.
type coordinator struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	events chan netEvent
	tick   <-chan time.Time // drives the lease sweeps; nil never ticks
	// now is the instant the owner stamped on the event it is handling.
	now time.Time

	members map[string]*member
	owners  []*member // stage index → serving member
	// tokens is the mint counter, live rather than folded: a mint whose
	// welcome never went out is not journaled. Recovery seeds it from the
	// fold's MaxOrd.
	tokens int
	// joined is set once the join barrier closes; leases run from there.
	joined bool

	// conns maps every open connection the coordinator tracks to its
	// member, nil until its hello is admitted. dead is set once the
	// coordinator stops admitting: at an injected crash, and when Serve
	// returns.
	conns map[link]*member
	dead  bool

	// pending holds every request out on an open connection, by id.
	pending map[uint64]*flight
	seq     uint64

	// jnl holds the durable state: the current epoch, its payload and
	// resume point, and the Result are read only from its fold.
	jnl *coordJournal
	tap func(durable)

	// calls counts answered engine stage calls (CoordFailAfter seam).
	calls int
	// healArmed is set while the degraded epoch runs under Config.Rejoin:
	// the first stage call that finds a dwell-stable rejoined worker
	// clears it and halts the engine for the restore replan (one restore
	// per run, mirroring the at-most-one-loss invariant).
	healArmed bool

	// Deterministic counters (sim registry).
	stageCalls *obs.Counter
	// stageWait times each collect the engine blocks in (ctrl registry).
	stageWait *obs.Histogram
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
	co.conns = make(map[link]*member)
	co.pending = make(map[uint64]*flight)
	co.events = make(chan netEvent)
	co.stageCalls = cfg.Obs.Counter("llmpq_dist_stage_calls_total")
	co.stageWait = cfg.CtrlObs.Histogram("llmpq_dist_stage_wait_seconds", obs.TimeBuckets())
	co.stamp()
	if err := co.openJournal(); err != nil {
		return nil, err
	}
	defer co.jnl.close()
	co.ctx, co.cancel = context.WithCancel(ctx)
	defer co.cancel()
	defer co.closeConns()
	tick := time.NewTicker(cfg.Heartbeat)
	defer tick.Stop()
	co.tick = tick.C
	go co.acceptLoop()

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
	for _, mr := range st.Members {
		s := state{phase: detached, token: mr.Token, ord: mr.Ord, lastHeard: co.now}
		if slices.Contains(st.Lost, mr.Name) {
			s.phase = lost
		}
		co.members[mr.Name] = &member{name: mr.Name, st: s}
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
	err := co.wait(co.cfg.JoinTimeout, func() bool { return co.joined })
	if !errors.Is(err, errAwaitTimeout) {
		return err
	}
	if co.cfg.Recover && len(co.membersWhere(state.attached)) >= 1 {
		for _, m := range co.membersWhere(state.absent) {
			if co.markLost(m) {
				co.ctrlInc("llmpq_dist_lease_expiries_total")
				co.cfg.Logf("worker %s did not reattach within %s; declared lost", m.name, co.cfg.JoinTimeout)
			}
		}
		// Open the barrier so the sweeps start enforcing leases.
		co.joined = true
		return nil
	}
	return fmt.Errorf("dist: only %d of %d workers joined within %s",
		len(co.membersWhere(state.attached)), co.cfg.Workers, co.cfg.JoinTimeout)
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
		buf := &stageBuffer{co: co, plan: plan, owners: co.owners, batch: spec.Work.GlobalBatch, last: spec.Work.Generate - 1,
			times: map[stageKey][]float64{}, flights: map[*member][]*flight{}}
		eng.StageTimer = buf.stageTime
		eng.OnRoundCommit = co.onRoundCommit
		eng.Obs, eng.Spans = cfg.Obs, cfg.Spans
		co.healArmed = armed
		stats, err := eng.Run()
		co.healArmed = false
		for _, fs := range buf.flights {
			for _, f := range fs {
				delete(co.pending, f.id)
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
	if lost.Stage < len(co.owners) {
		dead := co.owners[lost.Stage]
		name = dead.name
		for j, m := range co.owners {
			if m == dead && cfg.Plan.Order[j] != lost.Device {
				drop = append(drop, cfg.Plan.Order[j])
			}
		}
	}
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
		co.apply(m, event{kind: evPromote}) // a no-op for the others
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

// closeConns refuses further admission and closes every tracked
// connection: a worker must never keep heartbeating a coordinator that
// is gone.
func (co *coordinator) closeConns() {
	co.dead = true
	for l := range co.conns {
		l.close()
	}
	clear(co.conns)
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

// flight is one request out to a worker under a pending id: a stage
// batch, or a reconfigure (req nil). w, the connection it went out on,
// is nil until it goes out, and again once it must go again; ans is the
// answer read for it.
type flight struct {
	req *StageBatch
	id  uint64
	w   link
	ans *Message
}

// stageTime is the Engine.StageTimer callback: answer one task from the
// buffer. A miss sends the task's pass and the passesInFlight−1 after it
// unless they are out, and collects the batch of the stage's owner. While
// the degraded epoch runs with heal armed, the first call that finds a
// dwell-stable rejoined worker instead halts the engine with a
// StageRestoreError so the restore replan can bring it back.
func (b *stageBuffer) stageTime(stage, batch, round int, prefill bool) (float64, error) {
	co := b.co
	if co.healArmed && len(co.healedMembers()) > 0 {
		co.healArmed = false
		return 0, &rt.StageRestoreError{}
	}
	k := stageKey{stage, batch, round, prefill}
	if len(b.times[k]) == 0 {
		// A miss is the engine's event: the batches it sends are stamped
		// with its instant.
		co.stamp()
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
	if n := co.cfg.CoordFailAfter; n > 0 {
		if co.calls++; co.calls == n {
			co.crash()
			return 0, ErrInjectedCoordCrash
		}
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
	co, w := b.co, m.conn
	if w == nil {
		return
	}
	for _, f := range b.flights[m] {
		if f.w == w || f.ans != nil {
			continue
		}
		delete(co.pending, f.id) // the id it went out under on an earlier connection
		co.seq++
		f.id = co.seq
		if co.cfg.RoundDeadline > 0 {
			f.req.DeadlineUnixNano = co.now.Add(co.cfg.RoundDeadline).UnixNano()
		}
		if err := w.send(&Message{Type: MsgStageBatch, ID: f.id, StageBatch: f.req}); err != nil {
			f.w = nil
			m.unlink(w)
			co.ctrlInc("llmpq_dist_stage_resends_total")
			return
		}
		f.w = w
		co.pending[f.id] = f
	}
}

// collect waits for f, m's batch, and buffers its answers. It survives
// detach windows (the batch goes again after the reattach) and deadline
// aborts (again up to deadlineRetries times), and turns a lease expiry
// into a StageLostError for stage, the engine's call. An answer read
// before its connection closed or its lease expired is still used.
func (b *stageBuffer) collect(m *member, f *flight, stage int) error {
	co := b.co
	start := co.now
	defer func() { co.stageWait.Observe(co.now.Sub(start).Seconds()) }()
	aborts := 0
	for {
		if f.w == nil {
			_, err := co.linkOf(m)
			switch {
			case errors.Is(err, errMemberLost):
				return &rt.StageLostError{Stage: stage}
			case err != nil:
				return err
			}
			if b.flush(m); f.w == nil {
				continue
			}
		}
		// The answer must arrive within deadline + lease: either the worker
		// answers (possibly with an abort), the connection dies (send again
		// after the reattach), or the lease expires.
		err := co.await(f, m)
		switch {
		case f.ans != nil:
		case errors.Is(err, errAwaitTimeout):
			// The connection is up but the worker went mute: force a
			// reconnect and charge a deadline strike.
			co.drop(f.w)
		case err != nil:
			return err
		case m.gone():
			return &rt.StageLostError{Stage: stage}
		default:
			co.ctrlInc("llmpq_dist_stage_resends_total")
			continue
		}
		if f.ans == nil || f.ans.StageBatchResult.Aborted {
			f.w, f.ans = nil, nil
			co.ctrlInc("llmpq_dist_deadline_aborts_total")
			if aborts++; aborts > deadlineRetries {
				return fmt.Errorf("dist: stage %d batch exceeded its %s deadline %d times", stage, co.cfg.RoundDeadline, aborts)
			}
			continue
		}
		req, res := f.req, f.ans.StageBatchResult
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

// reconfigure ships a new plan payload to one member and waits for the
// acknowledgement, sending it again across transient disconnects.
func (co *coordinator) reconfigure(m *member, payload *PlanPayload) error {
	for {
		w, err := co.linkOf(m)
		if err != nil {
			return err
		}
		co.seq++
		f := &flight{id: co.seq, w: w}
		if err := w.send(&Message{Type: MsgReconfigure, ID: f.id, Reconfigure: payload}); err != nil {
			co.drop(w)
			continue
		}
		co.pending[f.id] = f
		err = co.await(f, m)
		delete(co.pending, f.id)
		switch {
		case f.ans != nil:
			return nil
		case err != nil:
			return err
		case m.gone():
			return errMemberLost
		}
	}
}

// linkOf returns m's connection, waiting through a detach window; it
// fails with errMemberLost once the lease expires.
func (co *coordinator) linkOf(m *member) (link, error) {
	if err := co.wait(0, func() bool { return m.conn != nil || m.gone() }); err != nil {
		return nil, err
	}
	if m.gone() {
		return nil, errMemberLost
	}
	return m.conn, nil
}

// await waits until f is answered, its connection closes or m is lost,
// for at most deadline + lease.
func (co *coordinator) await(f *flight, m *member) error {
	return co.wait(co.cfg.RoundDeadline+co.cfg.Lease, func() bool { return f.ans != nil || f.w == nil || m.gone() })
}

// stamp sets now for the event the owner is about to handle.
func (co *coordinator) stamp() { co.now = time.Now() }

// wait is the event pump, the only place the owner waits for events: it
// handles them until done holds, failing with errAwaitTimeout once d elapses
// (d ≤ 0 never does) or with the context's error once the run stops.
// Frames win over the sweep ticker and the deadline when both are ready,
// so a sweep after a stretch without pumping first sees the frames the
// readers hold.
func (co *coordinator) wait(d time.Duration, done func() bool) error {
	if done() {
		return nil
	}
	var expired <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	for !done() {
		var ev netEvent
		select {
		case ev = <-co.events:
		default:
			select {
			case ev = <-co.events:
			case <-co.tick:
				co.stamp()
				co.sweep()
				continue
			case <-expired:
				return errAwaitTimeout
			case <-co.ctx.Done():
				return co.ctx.Err()
			}
		}
		co.stamp()
		co.handle(ev)
	}
	return nil
}

// acceptLoop accepts connections until the coordinator stops, and starts
// a reader on each.
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
		go co.read(newWire(c, co.cfg.CtrlObs))
	}
}

// read is one connection's reader: it posts the accept, each frame, and
// the read error that ends the connection. The hello must arrive within
// a lease.
func (co *coordinator) read(w *wire) {
	if !co.post(netEvent{l: w, accepted: true}) {
		return
	}
	_ = w.c.SetReadDeadline(time.Now().Add(co.cfg.Lease)) //llmpq:allow(errdrop): a failed deadline surfaces as the recv error on the next line
	msg, err := w.recv()
	_ = w.c.SetReadDeadline(time.Time{}) //llmpq:allow(errdrop): clearing a deadline on a dying conn can only fail harmlessly
	for co.post(netEvent{l: w, msg: msg, err: err}) && err == nil {
		msg, err = w.recv()
	}
}

// post hands ev to the owner, or closes its connection once the run has
// stopped.
func (co *coordinator) post(ev netEvent) bool {
	select {
	case co.events <- ev:
		return true
	case <-co.ctx.Done():
		ev.l.close()
		return false
	}
}

// handle applies one socket event.
func (co *coordinator) handle(ev netEvent) {
	if ev.accepted {
		if co.dead {
			ev.l.close()
		} else {
			co.conns[ev.l] = nil
		}
		return
	}
	m, open := co.conns[ev.l]
	switch {
	case !open:
		// The coordinator dropped the connection; its reader is behind.
	case ev.err != nil:
		co.drop(ev.l)
		if m != nil {
			co.cfg.Logf("worker %s detached: %v", m.name, ev.err)
		}
	case m == nil:
		co.hello(ev.l, ev.msg)
	default:
		// Any frame after the welcome renews the lease and proves the
		// worker got past the handshake: from here the token is the only key.
		co.apply(m, event{kind: evFrame, now: co.now})
		switch msg := ev.msg; msg.Type {
		case MsgHeartbeat:
			co.ctrlInc("llmpq_dist_heartbeats_received_total")
		case MsgStageBatchResult, MsgReconfigureOK:
			// An answer to an abandoned request is dropped.
			if f := co.pending[msg.ID]; f != nil {
				delete(co.pending, msg.ID)
				f.ans = msg
			}
		case MsgBye:
			co.drop(ev.l)
		default:
			// Unknown frames renew the lease and are otherwise ignored —
			// forward compatibility within a protocol version.
		}
	}
}

// hello runs the handshake on a connection's first frame.
func (co *coordinator) hello(l link, msg *Message) {
	if msg.Type != MsgHello {
		co.drop(l)
		return
	}
	h := msg.Hello
	if h.Version != ProtocolVersion {
		co.reject(l, &Reject{Reason: fmt.Sprintf("protocol version %d, coordinator speaks %d", h.Version, ProtocolVersion)})
		return
	}
	m, rec, reason, retryable := co.admit(h)
	if reason != "" {
		co.reject(l, &Reject{Reason: reason, Retryable: retryable})
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
	if err := l.send(&Message{Type: MsgWelcome, Welcome: welcome}); err != nil {
		co.drop(l)
		return
	}
	// Attach only once the welcome went out: an attached connection is
	// open to stage calls, and a request that overtook the welcome would
	// fail the worker's handshake and cost it a reconnect.
	co.attach(m, l)
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
}

// reject turns a hello away with a best-effort courtesy frame.
func (co *coordinator) reject(l link, r *Reject) {
	//llmpq:allow(errdrop): best-effort courtesy reject; the connection closes either way
	_ = l.send(&Message{Type: MsgReject, Reject: r})
	co.drop(l)
}

// admit applies step's verdict on a hello: the member plus, when a token
// was minted, the MemberRecord to journal once the welcome is delivered;
// or a rejection and whether it is retryable.
func (co *coordinator) admit(h *Hello) (*member, *MemberRecord, string, bool) {
	m := co.members[h.Name]
	if m == nil {
		m = &member{name: h.Name}
	}
	prev := m.st
	next, v := step(prev, event{kind: evHello, now: co.now, hello: h, full: len(co.members) >= co.cfg.Workers}, &co.cfg)
	var rec *MemberRecord
	if v.mint {
		co.tokens++
		next.token, next.ord = fmt.Sprintf("lease-%d-%s", co.tokens, h.Name), co.tokens
		rec = &MemberRecord{Name: h.Name, Token: next.token, Ord: next.ord}
	}
	co.set(m, next)
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

// attach makes l m's connection, dropping the one it replaces.
func (co *coordinator) attach(m *member, l link) {
	old := m.conn
	m.conn = l
	co.conns[l] = m
	m.st, _ = step(m.st, event{kind: evConnUp, now: co.now}, nil)
	if old != nil && old != l {
		co.drop(old)
	}
}

// drop closes l and forgets it: its member detaches if l is its
// connection, and every request out on l must go again.
func (co *coordinator) drop(l link) {
	l.close()
	if m := co.conns[l]; m != nil {
		m.unlink(l)
	}
	delete(co.conns, l)
	for id, f := range co.pending {
		if f.w == l {
			delete(co.pending, id)
			f.w = nil
		}
	}
}

// apply steps m through a non-hello event and reports whether the step
// took the lease.
func (co *coordinator) apply(m *member, ev event) bool {
	next, _ := step(m.st, ev, &co.cfg)
	return co.set(m, next)
}

// set installs m's next state. Taking the lease drops m's connection; it
// reports a taken lease.
func (co *coordinator) set(m *member, next state) bool {
	took := next.phase >= lost && !m.gone()
	m.st = next
	if took && m.conn != nil {
		co.drop(m.conn)
	}
	return took
}

// markLost delivers the lease verdict; false when already lost.
func (co *coordinator) markLost(m *member) bool { return co.apply(m, event{kind: evExpire}) }

// maybeJoined closes the join barrier once the membership is complete
// and every not-lost member holds a live connection. Recovery seeds the
// membership from the journal, so completeness there means "everyone the
// journal knows", not the configured worker count.
func (co *coordinator) maybeJoined() {
	short := !co.cfg.Recover && len(co.members) < co.cfg.Workers
	if !short && len(co.membersWhere(state.absent)) == 0 {
		co.joined = true
	}
}

// membersWhere returns, sorted by name, the members whose state keep
// accepts.
func (co *coordinator) membersWhere(keep func(s state) bool) []*member {
	var out []*member
	for _, m := range co.members {
		if keep(m.st) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sweep expires leases: any member silent past the lease is declared
// permanently lost, which fails its waiting stage call with a
// StageLostError and drives the failover path. Leases start at the join
// barrier: a recovered membership gets its full reattach window first.
func (co *coordinator) sweep() {
	if !co.joined {
		return
	}
	for _, m := range co.membersWhere(state.live) {
		if co.apply(m, event{kind: evLease, now: co.now}) {
			co.ctrlInc("llmpq_dist_lease_expiries_total")
			co.cfg.Logf("worker %s lease expired (silent > %s)", m.name, co.cfg.Lease)
		}
	}
}

// assignStages maps the plan's stages round-robin over the members in
// name order — a pure function of (plan, membership), so every
// coordinator restart with the same workers reproduces it.
func (co *coordinator) assignStages(p *assigner.Plan, members []*member) {
	co.owners = make([]*member, p.NumStages())
	for j := range co.owners {
		co.owners[j] = members[j%len(members)]
	}
}

// healedMembers returns the rejoined members whose lease held for the dwell.
func (co *coordinator) healedMembers() []*member {
	return co.membersWhere(func(s state) bool { return s.healed(co.now, co.cfg.HealDwell) })
}

// shutdown says goodbye to every serving worker and gives them up to a
// lease, all told, to hang up; Serve then closes whatever is left.
// Closing first would race a worker's in-flight heartbeat: the reset
// connection fails before the worker reads its Bye, and it redials a
// coordinator that is gone. A worker detached at this point — its
// connection dropped after its last answer was read — is mid-reattach:
// it is told on the connection it comes back on, or it would redial a
// coordinator that is gone until its retry budget runs out. A farewell
// that fails to send detaches it the same way.
func (co *coordinator) shutdown(reason string) {
	bye := &Message{Type: MsgBye, Bye: &Bye{Reason: reason}}
	told := map[*member]link{}
	left := co.membersWhere(state.serving)
	// The wait ends when every worker hung up or is lost, or out of grace.
	_ = co.wait(co.cfg.Lease, func() bool {
		left = slices.DeleteFunc(left, func(m *member) bool {
			if l := told[m]; l != nil {
				_, open := co.conns[l]
				return !open
			}
			if m.conn != nil {
				if m.conn.send(bye) == nil {
					told[m] = m.conn
				} else {
					co.drop(m.conn)
				}
			}
			return m.gone()
		})
		return len(left) == 0
	})
}

func (co *coordinator) setWorkersGauge(n int) {
	co.cfg.Obs.Gauge("llmpq_dist_workers").Set(float64(n))
}

func (co *coordinator) ctrlInc(name string) {
	co.cfg.CtrlObs.Counter(name).Inc()
}
