package dist

import (
	"fmt"
	"time"

	"repro/internal/failover"
)

// phase is a worker's place in the lease state machine (DESIGN.md §11,
// §15). The live phases pair two facts: is the token proven (by a frame
// after the welcome, or a hello echoing it), and is a connection attached.
type phase uint8

const (
	vacant      phase = iota // no worker holds the name
	joining                  // admitted; token unproven, no connection
	welcomed                 // welcome delivered on the attached connection; token unproven
	active                   // token proven, connection attached
	detached                 // token proven, connection down, lease running
	lost                     // lease expired
	quarantined              // lost more often than the flap tolerance allows; terminal
)

// state is one worker's membership. A rejoined worker sits out the heal
// dwell, serving no stage, until the restore replan clears rejoinedAt.
type state struct {
	phase      phase
	token      string
	ord        int // mint ordinal of token
	flaps      int // lease losses
	lastHeard  time.Time
	rejoinedAt time.Time
}

func (s state) live() bool     { return s.phase > vacant && s.phase < lost }
func (s state) attached() bool { return s.phase == welcomed || s.phase == active }
func (s state) absent() bool   { return s.live() && !s.attached() }
func (s state) serving() bool  { return s.live() && s.rejoinedAt.IsZero() }

// healed reports a rejoined, attached worker whose lease held for the dwell.
func (s state) healed(now time.Time, dwell time.Duration) bool {
	return s.attached() && !s.rejoinedAt.IsZero() && now.Sub(s.rejoinedAt) >= dwell
}

type eventKind uint8

const (
	evHello    eventKind = iota // a hello for the name
	evFrame                     // a frame after the welcome: renews the lease, proves the token
	evConnUp                    // the welcomed connection attaches
	evConnDown                  // the attached connection dies
	evLease                     // lease check: expire when silent past cfg.Lease
	evExpire                    // the lease verdict without the check (join barrier timeout)
	evPromote                   // the restore replan serves the rejoined worker again
)

type event struct {
	kind  eventKind
	now   time.Time
	hello *Hello // evHello
	full  bool   // evHello: the membership already holds cfg.Workers names
}

// links are the live phases' moves on proof and on the connection.
var links = map[eventKind]map[phase]phase{
	evFrame:    {joining: detached, welcomed: active},
	evConnUp:   {joining: welcomed, detached: active},
	evConnDown: {welcomed: joining, active: detached},
}

func (s *state) move(kind eventKind) {
	if p, ok := links[kind][s.phase]; ok {
		s.phase = p
	}
}

// verdict answers a hello: admitted when reason (which workers log) is
// empty, else a reject, retryable when retry is set. mint asks for a token.
type verdict struct {
	reason string
	retry  bool
	mint   bool
}

func fatalf(f string, a ...any) verdict { return verdict{reason: fmt.Sprintf(f, a...)} }
func retryf(f string, a ...any) verdict { return verdict{reason: fmt.Sprintf(f, a...), retry: true} }

// step is the membership decision table: the state a worker moves to on
// ev and, for a hello, the verdict. It takes no lock and reads no clock;
// cfg is read by hellos and lease checks only, and may be nil otherwise.
func step(s state, ev event, cfg *Config) (state, verdict) {
	s.move(ev.kind)
	switch ev.kind {
	case evHello:
		return hello(s, ev, cfg)
	case evFrame, evConnUp:
		s.lastHeard = ev.now
	case evLease, evExpire:
		// Each loss counts against the flap tolerance.
		if s.live() && (ev.kind == evExpire || ev.now.Sub(s.lastHeard) > cfg.Lease) {
			s.phase, s.flaps, s.rejoinedAt = lost, s.flaps+1, time.Time{}
		}
	case evPromote:
		s.rejoinedAt = time.Time{}
	}
	return s, verdict{}
}

// hello decides admission. A live name opens to its current token, or,
// token-less, to a retry whose welcome was lost in flight. Under
// Config.Rejoin a lost name heals back in through its current token or a
// token-less hello flagged as a rejoin. Every token-less admission mints:
// the latest mint is the live token, and a stale one never opens the name.
func hello(s state, ev event, cfg *Config) (state, verdict) {
	h := ev.hello
	tokenOK := h.Token != "" && h.Token == s.token
	switch {
	case h.Name == "":
		return s, fatalf("worker name must not be empty")
	case s.phase == vacant && h.Token != "":
		return s, fatalf("unknown rejoin token")
	case s.phase == vacant && ev.full:
		return s, fatalf("cluster is full (%d workers)", cfg.Workers)
	case s.phase == vacant:
		return state{phase: joining, lastHeard: ev.now}, verdict{mint: true}
	case s.live() && tokenOK:
		s.move(evFrame)
		return s, verdict{}
	case s.phase == joining && h.Token == "":
		return s, verdict{mint: true}
	case s.phase == welcomed && h.Token == "":
		// A handshake for the name is in flight on a live connection.
		return s, retryf("worker name %q is mid-handshake", h.Name)
	case s.live() && cfg.Rejoin && h.Rejoin:
		// A restart raced its own lease: back off until the verdict.
		return s, retryf("worker %q lease is still live; retry after expiry", h.Name)
	case s.live():
		return s, fatalf("worker name %q is taken", h.Name)
	case !cfg.Rejoin:
		return s, fatalf("worker %q lease expired; membership is closed", h.Name)
	case s.phase == quarantined:
		return s, fatalf("worker %q is quarantined after %d lease losses", h.Name, s.flaps)
	case h.Token != "" && !tokenOK:
		return s, fatalf("worker %q presented a stale rejoin token", h.Name)
	case !tokenOK && !h.Rejoin:
		return s, fatalf("worker %q lease expired; membership is closed", h.Name)
	case failover.Quarantined(s.flaps, cfg.FlapTolerance):
		s.phase = quarantined
		return s, fatalf("worker %q is quarantined after %d lease losses", h.Name, s.flaps)
	}
	// Lost → rejoined: the heal dwell starts now.
	s.rejoinedAt, s.lastHeard = ev.now, ev.now
	if tokenOK {
		s.phase = detached
		return s, verdict{}
	}
	s.phase = joining
	return s, verdict{mint: true}
}
