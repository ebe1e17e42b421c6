// Package dist is the real multi-process control plane for llmpq-dist
// (DESIGN.md §11): a coordinator that owns the deterministic global
// event loop and per-stage workers that evaluate the pure stage-time
// function remotely, speaking length-prefixed JSON over TCP.
//
// The design invariant is that a multi-process run is bit-identical to
// the single-process engine: runtime.StageTime is a pure function of
// (spec, plan, stage, batch, round, phase), Go's JSON encoder
// round-trips float64 exactly, and the coordinator keeps the entire
// discrete-event simulation local — workers contribute values, never
// scheduling decisions. Because every task of a round is known before
// the round starts, a worker evaluates its whole share of a round in one
// round trip (StageBatch), and the coordinator sends each round to every
// worker at once, up to seven rounds ahead of the engine, collecting a
// worker's answer only when the engine first needs one of its stages.
// Liveness is layered on top with worker→coordinator heartbeats and a
// lease: a worker that stays silent past its lease is declared lost,
// which surfaces in the engine as a runtime.StageLostError and drives
// the same failover.Transition → watermark-resume path a chaos
// permanent crash does.
package dist

import (
	"fmt"

	"repro/internal/assigner"
	"repro/internal/hardware"
	"repro/internal/model"
)

// ProtocolVersion gates the handshake: a worker whose hello carries a
// different version is rejected before it can join the membership.
const ProtocolVersion = 2

// MsgType discriminates the frames of the wire protocol.
type MsgType string

const (
	// MsgHello is the worker's first frame: version, name, and (on
	// reattach) the rejoin token from a previous welcome.
	MsgHello MsgType = "hello"
	// MsgWelcome admits a worker: rejoin token, heartbeat/lease terms,
	// and the current plan payload.
	MsgWelcome MsgType = "welcome"
	// MsgReject refuses a hello (version mismatch, name collision,
	// cluster full) and closes the connection.
	MsgReject MsgType = "reject"
	// MsgHeartbeat is the worker's periodic liveness beacon; any frame
	// renews the lease, heartbeats exist to renew it when idle.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgStageBatch asks the worker to evaluate runtime.StageTime for its
	// whole share of one round, subject to one deadline.
	MsgStageBatch MsgType = "stagebatch"
	// MsgStageBatchResult answers a MsgStageBatch with the same ID.
	MsgStageBatchResult MsgType = "stagebatch_result"
	// MsgReconfigure ships a replacement plan payload after a failover
	// replan.
	MsgReconfigure MsgType = "reconfigure"
	// MsgReconfigureOK acknowledges a MsgReconfigure with the same ID.
	MsgReconfigureOK MsgType = "reconfigure_ok"
	// MsgBye is the coordinator's clean shutdown: the worker exits
	// instead of reconnecting.
	MsgBye MsgType = "bye"
)

// Message is the single envelope every frame carries; exactly the field
// matching Type is populated.
type Message struct {
	Type MsgType `json:"type"`
	// ID correlates a request with its response (stagebatch and
	// reconfigure round trips).
	ID uint64 `json:"id,omitempty"`

	Hello            *Hello            `json:"hello,omitempty"`
	Welcome          *Welcome          `json:"welcome,omitempty"`
	Reject           *Reject           `json:"reject,omitempty"`
	StageBatch       *StageBatch       `json:"stagebatch,omitempty"`
	StageBatchResult *StageBatchResult `json:"stagebatch_result,omitempty"`
	Reconfigure      *PlanPayload      `json:"reconfigure,omitempty"`
	Bye              *Bye              `json:"bye,omitempty"`
}

// Hello opens a worker session.
type Hello struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Token is empty on first join; on reconnect it must echo the token
	// the welcome handed out, proving the worker is the same process
	// reattaching rather than a name squatter.
	Token string `json:"token,omitempty"`
	// Rejoin asks the coordinator to re-admit this name even if its
	// lease already expired — the heal handshake. Honored only when the
	// coordinator runs with Config.Rejoin; a token-less rejoin is a
	// restarted process reclaiming its name, a tokened one a surviving
	// process returning from a long partition. Stale tokens stay fenced
	// either way.
	Rejoin bool `json:"rejoin,omitempty"`
}

// Welcome admits a worker and states the membership terms.
type Welcome struct {
	Token        string  `json:"token"`
	HeartbeatSec float64 `json:"heartbeat_sec"`
	LeaseSec     float64 `json:"lease_sec"`
	Plan         *PlanPayload
}

// Reject refuses a hello. Retryable marks transient refusals (a
// mid-handshake name collision): the worker should back off and retry
// rather than die.
type Reject struct {
	Reason    string `json:"reason"`
	Retryable bool   `json:"retryable,omitempty"`
}

// Bye ends a session cleanly.
type Bye struct {
	Reason string `json:"reason,omitempty"`
}

// StageBatch asks for one worker's share of one round: runtime.StageTime
// of every micro-batch of the prefill pass or of decode round Round, on
// every stage the worker owns. The tasks are the product Stages ×
// Batches, stage-major; Batches holds one size per micro-batch, so equal
// sizes repeat and each is evaluated.
type StageBatch struct {
	Stages  []int `json:"stages"`
	Batches []int `json:"batches"`
	Round   int   `json:"round"`
	Prefill bool  `json:"prefill,omitempty"`
	// DeadlineUnixNano is the wall-clock instant after which the
	// coordinator no longer wants the answer; the worker aborts the whole
	// batch and reports instead of answering late. 0 means no deadline.
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
}

// tasks is the number of evaluations the batch asks for.
func (b *StageBatch) tasks() int { return len(b.Stages) * len(b.Batches) }

// StageBatchResult answers a StageBatch: all of it or none of it.
type StageBatchResult struct {
	// Seconds holds one stage time per task, in the batch's order.
	Seconds []float64 `json:"seconds,omitempty"`
	// Aborted reports the deadline had passed before (or while) the
	// worker served the batch; Seconds is empty.
	Aborted bool `json:"aborted,omitempty"`
	// Err carries a stage-time evaluation failure.
	Err string `json:"err,omitempty"`
}

// PlanPayload is everything a worker needs to evaluate
// runtime.StageTime: the model, the (possibly degraded) cluster, the
// workload, the KV precision, and the plan. It is deliberately not a
// core.Request — a degraded cluster produced by failover cannot be
// re-expressed as named device counts.
type PlanPayload struct {
	Cfg     model.Config      `json:"cfg"`
	Cluster hardware.Cluster  `json:"cluster"`
	Work    assigner.Workload `json:"work"`
	KVBits  int               `json:"kv_bits,omitempty"`
	Plan    *assigner.Plan    `json:"plan"`
}

// NewPlanPayload extracts the wire payload from a spec and plan.
func NewPlanPayload(s *assigner.Spec, p *assigner.Plan) *PlanPayload {
	return &PlanPayload{Cfg: s.Cfg, Cluster: s.Cluster, Work: s.Work, KVBits: s.KVBits, Plan: p}
}

// Spec rebuilds the minimal assigner.Spec StageTime reads. The solver
// fields (Bits, Omega, Theta, Method) are not shipped — workers never
// plan, they only evaluate.
func (pp *PlanPayload) Spec() *assigner.Spec {
	return &assigner.Spec{Cfg: pp.Cfg, Cluster: pp.Cluster, Work: pp.Work, KVBits: pp.KVBits}
}

// Validate checks the payload is structurally usable for StageTime.
func (pp *PlanPayload) Validate() error {
	if pp.Plan == nil || pp.Plan.NumStages() == 0 {
		return fmt.Errorf("dist: payload has no plan")
	}
	if err := pp.Work.Validate(); err != nil {
		return err
	}
	n := pp.Cluster.NumDevices()
	for _, d := range pp.Plan.Order {
		if d < 0 || d >= n {
			return fmt.Errorf("dist: plan device %d outside cluster of %d", d, n)
		}
	}
	return nil
}

// validate checks an envelope has the payload its type requires.
func (m *Message) validate() error {
	switch m.Type {
	case MsgHello:
		if m.Hello == nil {
			return fmt.Errorf("dist: hello frame without hello payload")
		}
	case MsgWelcome:
		if m.Welcome == nil {
			return fmt.Errorf("dist: welcome frame without welcome payload")
		}
	case MsgReject:
		if m.Reject == nil {
			return fmt.Errorf("dist: reject frame without reason")
		}
	case MsgStageBatch:
		if m.StageBatch == nil || m.StageBatch.tasks() == 0 {
			return fmt.Errorf("dist: stagebatch frame without tasks")
		}
	case MsgStageBatchResult:
		if m.StageBatchResult == nil {
			return fmt.Errorf("dist: stagebatch_result frame without result")
		}
	case MsgReconfigure:
		if m.Reconfigure == nil {
			return fmt.Errorf("dist: reconfigure frame without payload")
		}
	case MsgHeartbeat, MsgReconfigureOK, MsgBye:
	default:
		return fmt.Errorf("dist: unknown message type %q", m.Type)
	}
	return nil
}
