package dist

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/failover"
	"repro/internal/journal"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// JournalFile is the journal's file name inside Config.JournalDir.
const JournalFile = "coordinator.journal"

// RecordType discriminates journal records (DESIGN.md §14).
type RecordType string

const (
	// RecPlan adopts a plan epoch: the full wire payload plus the
	// watermark it starts from. Epoch 0 is the configured strategy;
	// each later epoch also carries the transition that produced it.
	RecPlan RecordType = "plan"
	// RecMember records a minted rejoin token — appended only after the
	// welcome carrying it was delivered.
	RecMember RecordType = "member"
	// RecRound records a completed-token watermark advance.
	RecRound RecordType = "round"
	// RecRecover marks a recovery boundary: a restarted coordinator
	// replayed everything before it.
	RecRecover RecordType = "recover"
	// RecDone marks clean completion; a journal ending in it has nothing
	// to recover.
	RecDone RecordType = "done"
)

// Record is the envelope every journal entry carries; exactly the field
// matching Type is populated (RecDone carries none).
type Record struct {
	Type RecordType `json:"type"`
	// Seq increments by one per record, across recovery boundaries — a
	// replayed prefix of length n continues at seq n+1.
	Seq     int            `json:"seq"`
	Plan    *PlanRecord    `json:"plan,omitempty"`
	Member  *MemberRecord  `json:"member,omitempty"`
	Round   *RoundRecord   `json:"round,omitempty"`
	Recover *RecoverRecord `json:"recover,omitempty"`
}

// PlanRecord is one plan adoption.
type PlanRecord struct {
	Epoch   int          `json:"epoch"`
	Payload *PlanPayload `json:"payload"`
	// Transition is the shrink or restore that produced this epoch; nil
	// exactly at epoch 0.
	Transition *TransitionRecord `json:"transition,omitempty"`
	// StartRound is the watermark this epoch runs from (0 for epoch 0).
	StartRound int `json:"start_round"`
	// DurableTokens is the cumulative token count credited before this
	// epoch — GlobalBatch × StartRound.
	DurableTokens int `json:"durable_tokens"`
	// StrategyHash fingerprints the strategy file; recovery refuses a
	// journal whose hash disagrees with the configured strategy.
	StrategyHash string `json:"strategy_hash,omitempty"`
	// Solve-cache provenance: whether a warm-start cache produced this
	// plan, and its cumulative hit/miss counters at adoption time.
	SolveCache  bool  `json:"solve_cache,omitempty"`
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

// MemberRecord is one rejoin-token mint (admission or rotation).
type MemberRecord struct {
	Name  string `json:"name"`
	Token string `json:"token"`
	// Ord is the mint ordinal; recovery resumes minting above the
	// maximum so rotated tokens never collide with journaled ones.
	Ord int `json:"ord"`
}

// RoundRecord is one watermark advance (Engine.OnRoundCommit).
type RoundRecord struct {
	Epoch int `json:"epoch"`
	// Watermark is the decode round every request durably holds.
	Watermark int `json:"watermark"`
	// DurableTokens = GlobalBatch × Watermark, cumulative.
	DurableTokens int  `json:"durable_tokens"`
	PrefillDone   bool `json:"prefill_done"`
	// RunTokens is what the current engine run had generated at the
	// commit (its resumed-token count on a post-replan epoch).
	RunTokens int `json:"run_tokens"`
}

// TransitionRecord is the failover.Transition outcome a plan epoch
// adopts. The halt instant is wall-clock dependent (a lease or dwell
// expiry), so it cannot be re-derived after a crash: the epoch is
// journaled write-ahead, before any worker acts on it. The watermark
// lives in the halt and in the enclosing PlanRecord.
type TransitionRecord struct {
	// Exactly one is set: Lost for a shrink, Halt for a restore.
	Lost *rt.DeviceLostError  `json:"lost,omitempty"`
	Halt *rt.RestoreHaltError `json:"halt,omitempty"`
	// Workers names the lost worker (shrink) or the healed ones (restore);
	// Devices names the physical devices that left or returned.
	Workers     []string                     `json:"workers"`
	Devices     []string                     `json:"devices,omitempty"`
	MovedLayers int                          `json:"moved_layers"`
	Migration   costmodel.MigrationBreakdown `json:"migration"`
}

// RecoverRecord marks a recovery boundary.
type RecoverRecord struct {
	Replayed  int   `json:"replayed"`
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// durable is the fold of every journal record so far (DESIGN.md §14):
// the one derivation the live coordinator and recovery both read.
type durable struct {
	Records     int             // records folded; the next append is seq Records+1
	Done        bool            // the journal ends in RecDone: nothing to recover
	Plans       []*PlanRecord   // every adopted epoch in order; the last is current
	Members     []*MemberRecord // each name's latest mint, in mint order
	MaxOrd      int             // the highest mint ordinal
	LastRound   *RoundRecord    // the latest watermark commit, nil before prefill completes
	Lost        []string        // workers the epochs leave lost: a shrink's, until a restore heals it
	StartRound  int             // the round the current epoch resumes from (see resume)
	BaseDurable int             // the tokens credited before StartRound
	Result      Result          // the transitions adopted so far
	degraded    int             // shrinks not yet undone by a restore
}

// current is the adopted epoch.
func (d *durable) current() *PlanRecord { return d.Plans[len(d.Plans)-1] }

// resume places the resume point of epoch p, committed up to watermark w
// with tokens credited. Epoch 0 re-executes from its start (see
// coordinator.run); a replanned epoch resumes past its committed rounds,
// and re-runs the final one (cheap, idempotent) when every round was
// durable but the done record never landed.
func (d *durable) resume(p *PlanRecord, w, tokens int) {
	d.StartRound, d.BaseDurable = p.StartRound, p.DurableTokens
	if p.Epoch == 0 {
		return
	}
	if w > p.StartRound {
		d.StartRound, d.BaseDurable = w, tokens
	}
	if work := p.Payload.Work; d.StartRound >= work.Generate {
		d.StartRound, d.BaseDurable = work.Generate-1, work.GlobalBatch*(work.Generate-1)
	}
}

// outcome rebuilds the failover.Outcome behind a plan epoch's transition,
// all but the Degraded and OldID that nothing downstream of it reads.
func (p *PlanRecord) outcome() *failover.Outcome {
	t := p.Transition
	out := &failover.Outcome{
		Lost: t.Lost, Halt: t.Halt, Plan: p.Payload.Plan, LostDevices: t.Devices,
		MovedLayers: t.MovedLayers, Migration: t.Migration,
		StartRound: p.StartRound, DurableTokens: p.DurableTokens,
	}
	if t.Halt != nil {
		out.RestoredDevices, out.LostDevices = t.Devices, nil
	} else if len(t.Devices) > 0 {
		out.LostDevice = t.Devices[0]
	}
	return out
}

// corrupt wraps a semantic decode failure in the journal's typed error so
// callers (and the fuzz target) see one corruption taxonomy.
func corrupt(index int, format string, args ...any) error {
	return &journal.CorruptJournalError{
		Offset: int64(index),
		Reason: fmt.Sprintf("record %d: %s", index, fmt.Sprintf(format, args...)),
	}
}

// fold applies one record to the durable state, leaving st unchanged. A
// structural violation (DESIGN.md §14) is a *journal.CorruptJournalError
// with the record index as the offset.
func fold(st durable, rec *Record) (durable, error) {
	i := st.Records
	if rec.Seq != i+1 {
		return st, corrupt(i, "seq %d, want %d", rec.Seq, i+1)
	}
	if st.Done {
		return st, corrupt(i, "record after done")
	}
	if i == 0 && rec.Type != RecPlan {
		return st, corrupt(i, "journal must open with a plan record, got %q", rec.Type)
	}
	switch rec.Type {
	case RecPlan:
		p := rec.Plan
		if p == nil {
			return st, corrupt(i, "plan record without payload")
		}
		if p.Epoch != len(st.Plans) {
			return st, corrupt(i, "plan epoch %d, want %d", p.Epoch, len(st.Plans))
		}
		if p.Payload == nil {
			return st, corrupt(i, "plan record without plan payload")
		}
		if err := p.Payload.Validate(); err != nil {
			return st, corrupt(i, "invalid plan payload: %v", err)
		}
		if p.StartRound < 0 || p.DurableTokens < 0 {
			return st, corrupt(i, "negative watermark in plan record")
		}
		switch t := p.Transition; {
		case t == nil && p.Epoch > 0:
			return st, corrupt(i, "plan epoch %d without a transition", p.Epoch)
		case t == nil:
		case p.Epoch == 0:
			return st, corrupt(i, "epoch-0 plan with a transition")
		case (t.Lost == nil) == (t.Halt == nil):
			return st, corrupt(i, "transition must carry exactly one of a loss and a restore halt")
		case len(t.Workers) == 0 || slices.Contains(t.Workers, ""):
			return st, corrupt(i, "transition names no worker")
		case t.Lost != nil:
			st.degraded++
		case st.degraded == 0:
			return st, corrupt(i, "restore without an earlier shrink")
		default:
			st.degraded--
		}
		if want := p.Payload.Work.GlobalBatch * p.StartRound; p.DurableTokens != want {
			return st, corrupt(i, "plan record credits %d durable tokens at watermark %d, want %d", p.DurableTokens, p.StartRound, want)
		}
		if t := p.Transition; t != nil {
			st.Lost = slices.DeleteFunc(slices.Clone(st.Lost), func(name string) bool { return slices.Contains(t.Workers, name) })
			if t.Lost != nil {
				st.Lost = append(st.Lost, t.Workers...)
				st.Result.LostWorker = t.Workers[0]
			} else {
				st.Result.HealedWorkers = t.Workers
			}
			st.Result.Apply(p.outcome())
		}
		st.Plans = append(slices.Clip(st.Plans), p)
		st.resume(p, p.StartRound, p.DurableTokens)
	case RecMember:
		m := rec.Member
		if m == nil {
			return st, corrupt(i, "member record without payload")
		}
		if m.Name == "" || m.Token == "" || m.Ord < 1 {
			return st, corrupt(i, "member record missing name, token, or ordinal")
		}
		// A token rotation supersedes the name's earlier mint.
		st.Members = append(slices.DeleteFunc(slices.Clone(st.Members), func(o *MemberRecord) bool { return o.Name == m.Name }), m)
		st.MaxOrd = max(st.MaxOrd, m.Ord)
	case RecRound:
		r := rec.Round
		if r == nil {
			return st, corrupt(i, "round record without payload")
		}
		if r.Watermark < 0 || r.DurableTokens < 0 {
			return st, corrupt(i, "negative watermark in round record")
		}
		if r.Epoch >= len(st.Plans) {
			return st, corrupt(i, "round record for unadopted epoch %d", r.Epoch)
		}
		if r.Epoch < len(st.Plans)-1 {
			return st, corrupt(i, "round record for superseded epoch %d", r.Epoch)
		}
		cur := st.current()
		if want := cur.Payload.Work.GlobalBatch * r.Watermark; r.DurableTokens != want {
			return st, corrupt(i, "round record credits %d durable tokens at watermark %d, want %d", r.DurableTokens, r.Watermark, want)
		}
		st.LastRound = r
		st.resume(cur, r.Watermark, r.DurableTokens)
	case RecRecover:
		if rec.Recover == nil {
			return st, corrupt(i, "recover record without payload")
		}
	case RecDone:
		st.Done = true
	default:
		return st, corrupt(i, "unknown record type %q", rec.Type)
	}
	st.Records++
	return st, nil
}

// DecodeState folds replayed journal payloads into the durable state. Bad
// JSON, an empty journal and every violation fold refuses return a
// *journal.CorruptJournalError, never a panic.
func DecodeState(records [][]byte) (*durable, error) {
	var st durable
	for i, raw := range records {
		var rec Record
		err := json.Unmarshal(raw, &rec)
		if err != nil {
			return nil, corrupt(i, "bad JSON: %v", err)
		}
		if st, err = fold(st, &rec); err != nil {
			return nil, err
		}
	}
	if len(st.Plans) == 0 {
		return nil, corrupt(0, "journal has no plan record")
	}
	return &st, nil
}

// coordJournal serializes the coordinator's appends: it stamps, folds and
// writes each record, counts the ctrl metrics, and latches the first
// error so the run fails loudly instead of silently losing durability. A
// nil writer keeps the fold in memory only.
type coordJournal struct {
	mu  sync.Mutex
	w   *journal.Writer
	st  durable
	err error
	tap func(durable) // when non-nil, sees the state after every append

	appends   *obs.Counter
	bytes     *obs.Counter
	appendSec *obs.Histogram
}

func newCoordJournal(w *journal.Writer, st durable, ctrl *obs.Registry, tap func(durable)) *coordJournal {
	if w != nil {
		syncSec := ctrl.Histogram("llmpq_journal_sync_seconds", obs.TimeBuckets())
		w.OnSync = func(d time.Duration) { syncSec.Observe(d.Seconds()) }
	}
	return &coordJournal{w: w, st: st, tap: tap,
		appends:   ctrl.Counter("llmpq_journal_appends_total"),
		bytes:     ctrl.Counter("llmpq_journal_bytes_total"),
		appendSec: ctrl.Histogram("llmpq_journal_append_seconds", obs.TimeBuckets()),
	}
}

// append returns the sticky error; a caller that cannot act on it leaves
// it to the next plan or done append. A record the fold refuses is never
// written: the coordinator cannot leave a journal its recovery refuses.
func (j *coordJournal) append(rec *Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	rec.Seq = j.st.Records + 1
	next, err := fold(j.st, rec)
	if err != nil {
		j.err = fmt.Errorf("dist: journal refuses the coordinator's own record: %w", err)
		return j.err
	}
	if j.w != nil {
		buf, err := json.Marshal(rec)
		if err != nil {
			j.err = fmt.Errorf("dist: journal encode: %w", err)
			return j.err
		}
		// Round watermarks ride on the next barrier's fsync (DESIGN.md §14).
		write := j.w.Append
		if rec.Type == RecRound {
			write = j.w.AppendNoSync
		}
		start := time.Now()
		n, err := write(buf)
		if err != nil {
			j.err = fmt.Errorf("dist: journal append: %w", err)
			return j.err
		}
		j.appendSec.Observe(time.Since(start).Seconds())
		j.appends.Inc()
		j.bytes.Add(float64(n))
	}
	j.st = next
	if j.tap != nil {
		j.tap(next)
	}
	return nil
}

// state returns a copy of the durable state as of the last append.
func (j *coordJournal) state() *durable {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	return &st
}

// close releases the underlying file; safe to call more than once.
func (j *coordJournal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		_ = j.w.Close() //llmpq:allow(errdrop): shutdown path; a finished run's done barrier left nothing to sync, and a failed run's unsynced rounds are only re-executed if lost
	}
}
