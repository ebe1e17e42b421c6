package dist

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/costmodel"
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

// RecoveredState is a journal replayed into coordinator state.
type RecoveredState struct {
	// Plans holds every adopted epoch in order; the last is current.
	Plans []*PlanRecord
	// Members holds each worker's latest minted token, first-mint order.
	Members []*MemberRecord
	// LastRound is the latest watermark commit, nil before prefill
	// completed.
	LastRound *RoundRecord
	// Done reports the journal ends in RecDone — nothing to recover.
	Done bool
	// Records is the replayed record count; the next append is seq
	// Records+1.
	Records int
}

// corrupt wraps a semantic decode failure in the journal's typed error so
// callers (and the fuzz target) see one corruption taxonomy.
func corrupt(index int, format string, args ...any) error {
	return &journal.CorruptJournalError{
		Offset: int64(index),
		Reason: fmt.Sprintf("record %d: %s", index, fmt.Sprintf(format, args...)),
	}
}

// DecodeState decodes and semantically validates replayed journal
// payloads. Any structural violation — bad JSON, unknown type, missing
// payload, sequence break, epoch disorder, a round of any epoch but the
// current one, a transition missing from (or present at) an epoch, a
// restore with no shrink to undo — returns a
// *journal.CorruptJournalError (with the record index as the offset),
// never a panic.
func DecodeState(records [][]byte) (*RecoveredState, error) {
	st := &RecoveredState{}
	byName := map[string]int{}
	degraded := 0 // shrinks not yet undone by a restore
	for i, raw := range records {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, corrupt(i, "bad JSON: %v", err)
		}
		if rec.Seq != i+1 {
			return nil, corrupt(i, "seq %d, want %d", rec.Seq, i+1)
		}
		if st.Done {
			return nil, corrupt(i, "record after done")
		}
		if i == 0 && rec.Type != RecPlan {
			return nil, corrupt(i, "journal must open with a plan record, got %q", rec.Type)
		}
		switch rec.Type {
		case RecPlan:
			p := rec.Plan
			if p == nil {
				return nil, corrupt(i, "plan record without payload")
			}
			if p.Epoch != len(st.Plans) {
				return nil, corrupt(i, "plan epoch %d, want %d", p.Epoch, len(st.Plans))
			}
			if p.Payload == nil {
				return nil, corrupt(i, "plan record without plan payload")
			}
			if err := p.Payload.Validate(); err != nil {
				return nil, corrupt(i, "invalid plan payload: %v", err)
			}
			if p.StartRound < 0 || p.DurableTokens < 0 {
				return nil, corrupt(i, "negative watermark in plan record")
			}
			switch t := p.Transition; {
			case t == nil && p.Epoch > 0:
				return nil, corrupt(i, "plan epoch %d without a transition", p.Epoch)
			case t == nil:
			case p.Epoch == 0:
				return nil, corrupt(i, "epoch-0 plan with a transition")
			case (t.Lost == nil) == (t.Halt == nil):
				return nil, corrupt(i, "transition must carry exactly one of a loss and a restore halt")
			case len(t.Workers) == 0 || slices.Contains(t.Workers, ""):
				return nil, corrupt(i, "transition names no worker")
			case t.Lost != nil:
				degraded++
			case degraded == 0:
				return nil, corrupt(i, "restore without an earlier shrink")
			default:
				degraded--
			}
			st.Plans = append(st.Plans, p)
		case RecMember:
			m := rec.Member
			if m == nil {
				return nil, corrupt(i, "member record without payload")
			}
			if m.Name == "" || m.Token == "" || m.Ord < 1 {
				return nil, corrupt(i, "member record missing name, token, or ordinal")
			}
			if j, ok := byName[m.Name]; ok {
				st.Members[j] = m // token rotation: latest mint wins
			} else {
				byName[m.Name] = len(st.Members)
				st.Members = append(st.Members, m)
			}
		case RecRound:
			r := rec.Round
			if r == nil {
				return nil, corrupt(i, "round record without payload")
			}
			if r.Watermark < 0 || r.DurableTokens < 0 {
				return nil, corrupt(i, "negative watermark in round record")
			}
			if r.Epoch >= len(st.Plans) {
				return nil, corrupt(i, "round record for unadopted epoch %d", r.Epoch)
			}
			if r.Epoch < len(st.Plans)-1 {
				return nil, corrupt(i, "round record for superseded epoch %d", r.Epoch)
			}
			st.LastRound = r
		case RecRecover:
			if rec.Recover == nil {
				return nil, corrupt(i, "recover record without payload")
			}
		case RecDone:
			st.Done = true
		default:
			return nil, corrupt(i, "unknown record type %q", rec.Type)
		}
	}
	if len(st.Plans) == 0 {
		return nil, corrupt(0, "journal has no plan record")
	}
	st.Records = len(records)
	return st, nil
}

// coordJournal serializes the coordinator's appends, stamps sequence
// numbers, counts the ctrl metrics, and latches the first write error so
// the run fails loudly instead of silently losing durability.
type coordJournal struct {
	mu  sync.Mutex
	w   *journal.Writer
	seq int
	err error

	appends *obs.Counter
	bytes   *obs.Counter
}

func newCoordJournal(w *journal.Writer, ctrl *obs.Registry) *coordJournal {
	j := &coordJournal{w: w}
	if ctrl != nil {
		j.appends = ctrl.Counter("llmpq_journal_appends_total")
		j.bytes = ctrl.Counter("llmpq_journal_bytes_total")
	}
	return j
}

// append stamps and writes one record; after the first failure every
// append is a no-op and Err reports it.
func (j *coordJournal) append(rec *Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	rec.Seq = j.seq
	buf, err := json.Marshal(rec)
	if err != nil {
		j.err = fmt.Errorf("dist: journal encode: %w", err)
		return
	}
	n, err := j.w.Append(buf)
	if err != nil {
		j.err = fmt.Errorf("dist: journal append: %w", err)
		return
	}
	if j.appends != nil {
		j.appends.Inc()
		j.bytes.Add(float64(n))
	}
}

// Err returns the sticky append error, if any.
func (j *coordJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// close releases the underlying file; safe to call more than once.
func (j *coordJournal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.w.Close() //llmpq:allow(errdrop): shutdown path; appends were already fsync'd record-by-record
}
