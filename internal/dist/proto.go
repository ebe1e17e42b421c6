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
// scheduling decisions. Liveness is layered on top with worker→
// coordinator heartbeats and a lease: a worker that stays silent past
// its lease is declared lost, which surfaces in the engine as a
// runtime.StageLostError and drives the same failover.Transition →
// watermark-resume path a chaos permanent crash does.
package dist

import (
	"fmt"

	"repro/internal/assigner"
	"repro/internal/hardware"
	"repro/internal/model"
)

// ProtocolVersion gates the handshake: a worker whose hello carries a
// different version is rejected before it can join the membership.
const ProtocolVersion = 1

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
	// MsgStageTime asks the worker to evaluate runtime.StageTime for one
	// task, subject to a deadline.
	MsgStageTime MsgType = "stagetime"
	// MsgStageTimeResult answers a MsgStageTime with the same ID.
	MsgStageTimeResult MsgType = "stagetime_result"
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
	// ID correlates a request with its response (stagetime and
	// reconfigure round trips).
	ID uint64 `json:"id,omitempty"`

	Hello           *Hello            `json:"hello,omitempty"`
	Welcome         *Welcome          `json:"welcome,omitempty"`
	Reject          *Reject           `json:"reject,omitempty"`
	StageTime       *StageTimeRequest `json:"stagetime,omitempty"`
	StageTimeResult *StageTimeResult  `json:"stagetime_result,omitempty"`
	Reconfigure     *PlanPayload      `json:"reconfigure,omitempty"`
	Bye             *Bye              `json:"bye,omitempty"`
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

// StageTimeRequest asks for one runtime.StageTime evaluation.
type StageTimeRequest struct {
	Stage   int  `json:"stage"`
	Batch   int  `json:"batch"`
	Round   int  `json:"round"`
	Prefill bool `json:"prefill,omitempty"`
	// DeadlineUnixNano is the wall-clock instant after which the
	// coordinator no longer wants the answer; the worker aborts and
	// reports instead of computing late. 0 means no deadline.
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
}

// StageTimeResult answers a StageTimeRequest.
type StageTimeResult struct {
	Seconds float64 `json:"seconds"`
	// Aborted reports the deadline had passed before (or while) the
	// worker served the request; Seconds is meaningless.
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
	case MsgStageTime:
		if m.StageTime == nil {
			return fmt.Errorf("dist: stagetime frame without request")
		}
	case MsgStageTimeResult:
		if m.StageTimeResult == nil {
			return fmt.Errorf("dist: stagetime_result frame without result")
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
