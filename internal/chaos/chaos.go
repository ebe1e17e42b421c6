// Package chaos is the deterministic seeded fault injector behind the
// runtime's robustness story. LLM-PQ targets in-house heterogeneous
// clusters whose spare GPUs are exactly the ones that get preempted,
// fail, or straggle; the offline planner implicitly assumes the cluster
// it planned for is the cluster it serves on. This package models the
// ways that assumption breaks:
//
//   - KindCrash: a pipeline stage goes down at AtSec and (unless
//     Permanent) comes back RecoverySec later via the §5 on-the-fly
//     loader. Permanent crashes model device loss/preemption and are the
//     trigger for internal/failover's replanning loop.
//   - KindStraggler: a stage's compute slows by Factor for DurationSec
//     (thermal throttling, a noisy neighbour, a background job).
//   - KindSlowLink: the interconnect hop out of a stage slows by Factor
//     for DurationSec (congestion, a flapping NIC).
//   - KindKVAlloc: paged-KV allocations fail transiently with
//     probability Factor for DurationSec (memory pressure in online
//     serving; consumed by internal/online, ignored by the offline
//     engine).
//
// Everything is explicit-seed deterministic: a Schedule is plain data,
// and the Profile generator derives faults from a caller-supplied seed,
// so a fault run reproduces byte-for-byte (the -chaos-seed contract of
// llmpq-bench).
package chaos

import "fmt"

// Kind discriminates fault types.
type Kind int

const (
	// KindCrash takes a stage down at AtSec; it recovers after
	// RecoverySec unless Permanent.
	KindCrash Kind = iota
	// KindStraggler multiplies a stage's compute time by Factor during
	// [AtSec, AtSec+DurationSec).
	KindStraggler
	// KindSlowLink multiplies the transfer time of the edge leaving a
	// stage (stage → stage+1, and the tail stage's return hop) by Factor
	// during [AtSec, AtSec+DurationSec).
	KindSlowLink
	// KindKVAlloc makes paged-KV allocations fail with probability
	// Factor during [AtSec, AtSec+DurationSec) — online serving only.
	KindKVAlloc
	// KindConnDrop kills accepted control-plane connection Conn after it
	// has carried AfterFrames frames — a transient wire drop the client
	// heals with reconnect-and-backoff. Consumed by internal/dist's
	// fault-injecting listener; ignored by the in-process engine.
	KindConnDrop
	// KindPartition black-holes the control plane during [AtSec,
	// AtSec+DurationSec) measured in wall-clock seconds since the
	// listener opened: existing connections are severed and new ones
	// refused. Conn -1 targets every connection (the only supported
	// scope today). Consumed by internal/dist.
	KindPartition
	// KindNetDelay stalls each frame on connection Conn (-1 = all) by
	// DelaySec during [AtSec, AtSec+DurationSec) of wall-clock time —
	// the fault that trips per-round deadline propagation. Consumed by
	// internal/dist.
	KindNetDelay
	// KindCoordCrash kills the coordinator itself after AfterCalls
	// completed remote stage evaluations — the control-plane death the
	// journal/recovery path exists for. Counted in completed calls, not
	// wall time, so the crash point is deterministic. Consumed by
	// cmd/llmpq-dist (which arms Config.CoordFailAfter); ignored by the
	// in-process engine and the fault-injecting listener.
	KindCoordCrash
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStraggler:
		return "straggler"
	case KindSlowLink:
		return "slowlink"
	case KindKVAlloc:
		return "kvalloc"
	case KindConnDrop:
		return "conndrop"
	case KindPartition:
		return "partition"
	case KindNetDelay:
		return "netdelay"
	case KindCoordCrash:
		return "coordcrash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Network reports whether the kind targets the distributed control
// plane's wire (realized by internal/dist's fault-injecting listener)
// rather than the simulated pipeline.
func (k Kind) Network() bool {
	switch k {
	case KindConnDrop, KindPartition, KindNetDelay:
		return true
	default:
		return false
	}
}

// Fault is one scheduled fault. Which fields matter depends on Kind; see
// the Kind constants.
type Fault struct {
	Kind  Kind
	Stage int // pipeline stage (ignored by KindKVAlloc)
	AtSec float64
	// RecoverySec is the crash downtime (KindCrash, non-permanent): the
	// device stalls but keeps its plan, state, and membership. It is
	// mutually exclusive with Permanent — a permanent loss that later
	// heals is a RecoverAfterSec schedule, not downtime.
	RecoverySec float64
	// Permanent marks a crash as unrecoverable device loss (KindCrash):
	// the device surrenders its state, the fleet replans without it.
	Permanent bool
	// RecoverAfterSec, when positive on a Permanent crash, is the heal
	// schedule: the lost device returns (fresh process, empty state)
	// that many seconds after the loss and may be replanned back in via
	// the failover restore path. Zero means the loss never heals.
	RecoverAfterSec float64
	// Flaps is the number of extra loss/rejoin cycles the healed device
	// goes through before its lease finally stabilizes (KindCrash with
	// RecoverAfterSec): it is lost 1+Flaps times, and flap damping
	// quarantines it past the tolerance (failover.Quarantined).
	Flaps int
	// Factor is the slowdown multiplier (>= 1) for KindStraggler and
	// KindSlowLink, or the failure probability in (0, 1] for KindKVAlloc.
	Factor float64
	// DurationSec is the fault window for the windowed kinds.
	DurationSec float64
	// Conn is the 0-based accepted-connection ordinal targeted by the
	// network kinds; -1 targets every connection (KindPartition and
	// KindNetDelay only — KindConnDrop needs a specific connection).
	Conn int
	// AfterFrames is the frame count after which KindConnDrop severs its
	// connection (>= 1, counted over the frames it carries, both ways).
	AfterFrames int
	// AfterCalls is the completed-stage-call count after which
	// KindCoordCrash kills the coordinator (>= 1).
	AfterCalls int
	// DelaySec is the per-frame stall KindNetDelay injects.
	DelaySec float64
}

// activeAt reports whether a windowed fault covers virtual time t.
func (f Fault) activeAt(t float64) bool {
	return t >= f.AtSec && t < f.AtSec+f.DurationSec
}

// Validate checks one fault against a pipeline depth and an optional run
// horizon (0 = unbounded).
func (f Fault) Validate(stages int, horizonSec float64) error {
	if f.Kind != KindKVAlloc && f.Kind != KindCoordCrash && !f.Kind.Network() && (f.Stage < 0 || f.Stage >= stages) {
		return fmt.Errorf("chaos: %s fault stage %d out of [0,%d)", f.Kind, f.Stage, stages)
	}
	if f.AtSec < 0 {
		return fmt.Errorf("chaos: %s fault at negative time %g", f.Kind, f.AtSec)
	}
	if horizonSec > 0 && f.AtSec > horizonSec {
		return fmt.Errorf("chaos: %s fault at %.3fs is beyond the %.3fs run horizon", f.Kind, f.AtSec, horizonSec)
	}
	if f.Kind != KindCrash && (f.RecoverAfterSec != 0 || f.Flaps != 0) {
		return fmt.Errorf("chaos: %s fault cannot schedule a heal (RecoverAfterSec/Flaps are crash-only)", f.Kind)
	}
	switch f.Kind {
	case KindCrash:
		if f.RecoverySec < 0 {
			return fmt.Errorf("chaos: crash recovery %g is negative", f.RecoverySec)
		}
		if f.Permanent && f.RecoverySec != 0 {
			return fmt.Errorf("chaos: permanent crash cannot set RecoverySec %g (transient downtime); use RecoverAfterSec to schedule the heal", f.RecoverySec)
		}
		if f.RecoverAfterSec < 0 {
			return fmt.Errorf("chaos: crash RecoverAfterSec %g is negative", f.RecoverAfterSec)
		}
		if f.RecoverAfterSec > 0 && !f.Permanent {
			return fmt.Errorf("chaos: RecoverAfterSec %g only applies to permanent loss; transient downtime is RecoverySec", f.RecoverAfterSec)
		}
		if f.Flaps < 0 {
			return fmt.Errorf("chaos: crash flap count %d is negative", f.Flaps)
		}
		if f.Flaps > 0 && f.RecoverAfterSec == 0 {
			return fmt.Errorf("chaos: %d flaps without a RecoverAfterSec heal schedule", f.Flaps)
		}
	case KindStraggler, KindSlowLink:
		if f.Factor < 1 {
			return fmt.Errorf("chaos: %s factor %g must be >= 1", f.Kind, f.Factor)
		}
		if f.DurationSec <= 0 {
			return fmt.Errorf("chaos: %s duration %g must be positive", f.Kind, f.DurationSec)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: %s fault cannot be permanent", f.Kind)
		}
	case KindKVAlloc:
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("chaos: kvalloc failure probability %g outside (0,1]", f.Factor)
		}
		if f.DurationSec <= 0 {
			return fmt.Errorf("chaos: kvalloc duration %g must be positive", f.DurationSec)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: kvalloc fault cannot be permanent")
		}
	case KindConnDrop:
		if f.Conn < 0 {
			return fmt.Errorf("chaos: conndrop needs a specific connection ordinal, got %d", f.Conn)
		}
		if f.AfterFrames < 1 {
			return fmt.Errorf("chaos: conndrop after %d frames, must be >= 1", f.AfterFrames)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: conndrop fault cannot be permanent")
		}
	case KindPartition:
		if f.Conn < -1 {
			return fmt.Errorf("chaos: partition connection %d out of range (-1 = all)", f.Conn)
		}
		if f.DurationSec <= 0 {
			return fmt.Errorf("chaos: partition duration %g must be positive", f.DurationSec)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: partition fault cannot be permanent")
		}
	case KindNetDelay:
		if f.Conn < -1 {
			return fmt.Errorf("chaos: netdelay connection %d out of range (-1 = all)", f.Conn)
		}
		if f.DelaySec <= 0 {
			return fmt.Errorf("chaos: netdelay delay %g must be positive", f.DelaySec)
		}
		if f.DurationSec <= 0 {
			return fmt.Errorf("chaos: netdelay duration %g must be positive", f.DurationSec)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: netdelay fault cannot be permanent")
		}
	case KindCoordCrash:
		if f.AfterCalls < 1 {
			return fmt.Errorf("chaos: coordcrash after %d calls, must be >= 1", f.AfterCalls)
		}
		if f.Permanent {
			return fmt.Errorf("chaos: coordcrash fault cannot be permanent")
		}
	default:
		return fmt.Errorf("chaos: unknown fault kind %v", f.Kind)
	}
	return nil
}

// Schedule is a full fault plan for one serving run: plain data, fully
// determined by its fields — replaying the same schedule reproduces the
// same run byte-for-byte.
type Schedule struct {
	// Seed is the reproducibility handle: profile generation derives the
	// faults from it, and consumers (online KV-failure draws, retry
	// jitter) fold it into their own explicit seeds.
	Seed int64
	// HorizonSec, when positive, bounds fault start times: a fault
	// scheduled past the horizon can never fire and is a configuration
	// error, not a silent no-op.
	HorizonSec float64
	Faults     []Fault
}

// Validate checks every fault against the pipeline depth and the
// schedule's own horizon, and enforces at most one permanent device loss
// per schedule (the failover controller replans exactly once per loss;
// cascading losses are a separate, future scenario).
func (s *Schedule) Validate(stages int) error {
	if s == nil {
		return nil
	}
	if stages <= 0 {
		return fmt.Errorf("chaos: schedule for %d stages", stages)
	}
	if s.HorizonSec < 0 {
		return fmt.Errorf("chaos: negative horizon %g", s.HorizonSec)
	}
	perm := 0
	for i, f := range s.Faults {
		if err := f.Validate(stages, s.HorizonSec); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		if f.Kind == KindCrash && f.Permanent {
			perm++
		}
	}
	if perm > 1 {
		return fmt.Errorf("chaos: %d permanent device losses in one schedule (at most one supported)", perm)
	}
	return nil
}

// Permanent returns the schedule's permanent device-loss fault, if any.
func (s *Schedule) Permanent() (Fault, bool) {
	if s == nil {
		return Fault{}, false
	}
	for _, f := range s.Faults {
		if f.Kind == KindCrash && f.Permanent {
			return f, true
		}
	}
	return Fault{}, false
}

// ComputeMult returns the product of straggler factors active on a stage
// at virtual time t (1 when none).
func (s *Schedule) ComputeMult(stage int, t float64) float64 {
	return s.multAt(KindStraggler, stage, t)
}

// CommMult returns the product of slow-link factors active on the edge
// leaving a stage at virtual time t (1 when none).
func (s *Schedule) CommMult(stage int, t float64) float64 {
	return s.multAt(KindSlowLink, stage, t)
}

func (s *Schedule) multAt(kind Kind, stage int, t float64) float64 {
	if s == nil {
		return 1
	}
	mult := 1.0
	for _, f := range s.Faults {
		if f.Kind == kind && f.Stage == stage && f.activeAt(t) {
			mult *= f.Factor
		}
	}
	return mult
}

// KVFailProb returns the combined probability that a paged-KV allocation
// fails at virtual time t: 1 − Π(1−pᵢ) over active KindKVAlloc windows.
func (s *Schedule) KVFailProb(t float64) float64 {
	if s == nil {
		return 0
	}
	ok := 1.0
	for _, f := range s.Faults {
		if f.Kind == KindKVAlloc && f.activeAt(t) {
			ok *= 1 - f.Factor
		}
	}
	return 1 - ok
}

// NetFaults returns the schedule's network faults (conn drops,
// partitions, frame delays) in schedule order — the subset
// internal/dist's fault-injecting listener realizes. The in-process
// engine ignores them, exactly as it ignores KV-allocation faults.
func (s *Schedule) NetFaults() []Fault {
	if s == nil {
		return nil
	}
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind.Network() {
			out = append(out, f)
		}
	}
	return out
}

// CoordCrashAfter returns the call count of the schedule's coordinator
// crash, if one is scheduled (the first wins).
func (s *Schedule) CoordCrashAfter() (int, bool) {
	if s == nil {
		return 0, false
	}
	for _, f := range s.Faults {
		if f.Kind == KindCoordCrash {
			return f.AfterCalls, true
		}
	}
	return 0, false
}

// HasKVFaults reports whether any KV-allocation fault is scheduled.
func (s *Schedule) HasKVFaults() bool {
	if s == nil {
		return false
	}
	for _, f := range s.Faults {
		if f.Kind == KindKVAlloc {
			return true
		}
	}
	return false
}
