package dist

// The membership rules as they stood before the decision table: the
// member fields and admit, admitRejoin, markLost and rejoin, verbatim
// except that they are renamed, the locks, counters and log lines are
// gone, the connection is a bool, and the instant is a parameter instead
// of time.Now(). attach, detach, frame (touch plus setProven), the
// sweeper's lease check, the restore's promotion and the membership
// predicates are copied the same way. TestMembershipMatchesOracle checks
// step against them.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/failover"
	rt "repro/internal/runtime"
)

type oracleMember struct {
	name  string
	token string

	conn        bool
	lastHeard   time.Time
	lost        bool
	proven      bool
	rejoining   bool
	rejoinedAt  time.Time
	flaps       int
	quarantined bool
}

type oracleCoord struct {
	cfg     *Config
	members map[string]*oracleMember
	tokens  int
}

// oracleSnapshot lets the search undo an event instead of cloning.
type oracleSnapshot struct {
	members [2]*oracleMember
	values  [2]oracleMember
	tokens  int
}

func (oc *oracleCoord) snapshot() oracleSnapshot {
	sn := oracleSnapshot{tokens: oc.tokens}
	for i, n := range memberNames {
		if m := oc.members[n]; m != nil {
			sn.members[i], sn.values[i] = m, *m
		}
	}
	return sn
}

func (oc *oracleCoord) restore(sn oracleSnapshot) {
	oc.tokens = sn.tokens
	for i, n := range memberNames {
		if m := sn.members[i]; m != nil {
			*m = sn.values[i]
		} else {
			delete(oc.members, n)
		}
	}
}

func (m *oracleMember) markLost() bool {
	if m.lost {
		return false
	}
	m.lost = true
	m.rejoining = false
	m.flaps++
	if m.conn {
		m.conn = false
	}
	return true
}

func (m *oracleMember) rejoin(now time.Time) {
	m.lost = false
	m.rejoining = true
	m.rejoinedAt = now
	m.lastHeard = now
}

func (m *oracleMember) attach(now time.Time) {
	m.conn = true
	m.lastHeard = now
}

func (m *oracleMember) detach() { m.conn = false }

func (m *oracleMember) frame(now time.Time) {
	m.lastHeard = now
	m.proven = true
}

func (m *oracleMember) promote() { m.rejoining = false }

func (m *oracleMember) leaseExpired(now time.Time, lease time.Duration) bool {
	return !m.lost && now.Sub(m.lastHeard) > lease
}

func (m *oracleMember) absent() bool  { return !m.lost && !m.conn }
func (m *oracleMember) serving() bool { return !m.lost && !m.rejoining }
func (m *oracleMember) healed(now time.Time, dwell time.Duration) bool {
	return m.rejoining && !m.lost && m.conn && now.Sub(m.rejoinedAt) >= dwell
}

func (oc *oracleCoord) admit(h *Hello, now time.Time) (*oracleMember, *MemberRecord, string, bool) {
	if h.Name == "" {
		return nil, nil, "worker name must not be empty", false
	}
	if m, ok := oc.members[h.Name]; ok {
		lost, proven, attached := m.lost, m.proven, m.conn
		tokenOK := h.Token != "" && m.token == h.Token
		if tokenOK {
			m.proven = true
		}
		if lost {
			if oc.cfg.Rejoin {
				return oc.admitRejoin(h, m, tokenOK, now)
			}
			return nil, nil, fmt.Sprintf("worker %q lease expired; membership is closed", h.Name), false
		}
		if tokenOK {
			return m, nil, "", false
		}
		if h.Token == "" && !proven && !attached {
			oc.tokens++
			m.token = fmt.Sprintf("lease-%d-%s", oc.tokens, h.Name)
			tok := m.token
			return m, &MemberRecord{Name: h.Name, Token: tok, Ord: oc.tokens}, "", false
		}
		if h.Token == "" && !proven && attached {
			return nil, nil, fmt.Sprintf("worker name %q is mid-handshake", h.Name), true
		}
		if oc.cfg.Rejoin && h.Rejoin {
			return nil, nil, fmt.Sprintf("worker %q lease is still live; retry after expiry", h.Name), true
		}
		return nil, nil, fmt.Sprintf("worker name %q is taken", h.Name), false
	}
	if h.Token != "" {
		return nil, nil, "unknown rejoin token", false
	}
	if len(oc.members) >= oc.cfg.Workers {
		return nil, nil, fmt.Sprintf("cluster is full (%d workers)", oc.cfg.Workers), false
	}
	oc.tokens++
	m := &oracleMember{
		name:  h.Name,
		token: fmt.Sprintf("lease-%d-%s", oc.tokens, h.Name),
	}
	m.lastHeard = now
	oc.members[h.Name] = m
	return m, &MemberRecord{Name: h.Name, Token: m.token, Ord: oc.tokens}, "", false
}

func (oc *oracleCoord) admitRejoin(h *Hello, m *oracleMember, tokenOK bool, now time.Time) (*oracleMember, *MemberRecord, string, bool) {
	quarantined, flaps := m.quarantined, m.flaps
	if quarantined {
		return nil, nil, fmt.Sprintf("worker %q is quarantined after %d lease losses", h.Name, flaps), false
	}
	if !tokenOK && h.Token != "" {
		return nil, nil, fmt.Sprintf("worker %q presented a stale rejoin token", h.Name), false
	}
	if !tokenOK && !h.Rejoin {
		return nil, nil, fmt.Sprintf("worker %q lease expired; membership is closed", h.Name), false
	}
	if flaps > oc.cfg.FlapTolerance {
		m.quarantined = true
		return nil, nil, fmt.Sprintf("worker %q is quarantined after %d lease losses", h.Name, flaps), false
	}
	var rec *MemberRecord
	if !tokenOK {
		oc.tokens++
		m.token = fmt.Sprintf("lease-%d-%s", oc.tokens, h.Name)
		m.proven = false
		rec = &MemberRecord{Name: h.Name, Token: m.token, Ord: oc.tokens}
	}
	m.rejoin(now)
	return m, rec, "", false
}

func (s state) proven() bool { return s.phase == active || s.phase == detached }

// memberNames are the two names the exhaustive check interleaves.
var memberNames = [2]string{"a", "b"}

// mintedTokens[k][i] is the token admit mints for ordinal k and name i.
var mintedTokens = func() (t [64][2]string) {
	for k := range t {
		for i, n := range memberNames {
			t[k][i] = fmt.Sprintf("lease-%d-%s", k, n)
		}
	}
	return t
}()

func mintedToken(k, i int) string { return mintedTokens[k][i] }

// tableWorld is the decision table's side of the check: one state per
// name, the mint counter, and every ordinal minted for each name.
type tableWorld struct {
	st     [2]state
	tokens int
	mints  [2]uint64 // bit k: ordinal k was minted for the name
}

func (w *tableWorld) hello(i int, h *Hello, now time.Time, cfg *Config) (state, verdict) {
	n := 0
	for _, s := range w.st {
		if s.phase != vacant {
			n++
		}
	}
	next, v := step(w.st[i], event{kind: evHello, now: now, hello: h, full: n >= cfg.Workers}, cfg)
	if v.mint {
		w.tokens++
		next.token, next.ord = fmt.Sprintf("lease-%d-%s", w.tokens, h.Name), w.tokens
		w.mints[i] |= 1 << w.tokens
	}
	return next, v
}

type memberEvent struct {
	kind    eventKind
	name    int
	token   int // evHello: 0 none, 1 current, 2 stale
	rejoin  bool
	summary string
}

func (e memberEvent) String() string { return e.summary }

// memberAlphabet lists every event for both names plus the sweeper's
// lease check. Hellos carry no token, the current one, or a stale one
// (an earlier mint for the name, else one never minted), each with and
// without the rejoin flag.
func memberAlphabet() []memberEvent {
	var out []memberEvent
	for i, n := range memberNames {
		for tok, tn := range []string{"none", "current", "stale"} {
			for _, rj := range []bool{false, true} {
				out = append(out, memberEvent{kind: evHello, name: i, token: tok, rejoin: rj,
					summary: fmt.Sprintf("hello(%s, token=%s, rejoin=%v)", n, tn, rj)})
			}
		}
		for _, k := range []struct {
			kind eventKind
			s    string
		}{{evFrame, "frame"}, {evConnUp, "up"}, {evConnDown, "down"}, {evExpire, "expire"}, {evPromote, "promote"}} {
			out = append(out, memberEvent{kind: k.kind, name: i, summary: fmt.Sprintf("%s(%s)", k.s, n)})
		}
	}
	return append(out, memberEvent{kind: evLease, summary: "lease-check"})
}

// staleToken is the latest mint for name i that is not its current
// token, or a token never minted.
func (w *tableWorld) staleToken(i int) string {
	for k := w.tokens; k > 0; k-- {
		if w.mints[i]&(1<<k) != 0 && k != w.st[i].ord {
			return mintedToken(k, i)
		}
	}
	return "lease-0-" + memberNames[i]
}

// membershipCheck drives both sides through one event sequence tree.
type membershipCheck struct {
	t     *testing.T
	cfg   Config
	alpha []memberEvent
	path  []memberEvent
	steps int
}

var checkEpoch = time.Unix(1_000_000, 0)

func (c *membershipCheck) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("rejoin=%v tolerance=%d workers=%d, after %v: %s", c.cfg.Rejoin, c.cfg.FlapTolerance, c.cfg.Workers, c.path, fmt.Sprintf(format, args...))
}

// explore applies every applicable event to (o, w) and recurses until
// depth events have been applied.
func (c *membershipCheck) explore(o *oracleCoord, w tableWorld, depth int) {
	if depth == 0 {
		return
	}
	now := checkEpoch.Add(time.Duration(len(c.path)+1) * time.Second)
	for _, e := range c.alpha {
		om := o.members[memberNames[e.name]]
		applicable := true
		switch e.kind {
		case evHello:
			applicable = e.token != 1 || om != nil
		case evFrame, evPromote:
			applicable = om != nil && (e.kind == evFrame || om.rejoining)
		case evConnUp, evExpire:
			// A connection attaches after its hello was admitted. When the
			// lease expires in between, the old code kept the connection
			// on the lost member and set drops it on the rejoin, so the
			// two sides differ there by design; the search leaves it out.
			applicable = om != nil && !om.lost
		case evConnDown:
			applicable = om != nil && om.conn
		}
		if !applicable {
			continue
		}
		sn, w2 := o.snapshot(), w
		c.path = append(c.path, e)
		c.apply(o, &w2, e, now)
		c.steps++
		c.explore(o, w2, depth-1)
		c.path = c.path[:len(c.path)-1]
		o.restore(sn)
	}
}

func (c *membershipCheck) apply(o *oracleCoord, w *tableWorld, e memberEvent, now time.Time) {
	i, name := e.name, memberNames[e.name]
	om := o.members[name]
	prev := *w
	switch e.kind {
	case evHello:
		h := &Hello{Name: name, Rejoin: e.rejoin}
		switch e.token {
		case 1:
			h.Token = om.token
		case 2:
			h.Token = w.staleToken(i)
		}
		gotM, gotRec, gotRej, gotRetry := o.admit(h, now)
		next, v := w.hello(i, h, now, &c.cfg)
		if v.reason != gotRej || v.retry != gotRetry || v.mint != (gotRec != nil) || (v.reason == "") != (gotM != nil) {
			c.fail("verdict %+v, oracle (admitted=%v, rec=%+v, %q, retryable=%v)", v, gotM != nil, gotRec, gotRej, gotRetry)
		}
		if v.reason == "" && e.token == 2 {
			c.fail("stale token %q admitted", h.Token)
		}
		if was := prev.st[i]; v.reason == "" && h.Token != was.token && (was.proven() || was.attached()) {
			c.fail("hello without the token displaced a live holder (%+v)", was)
		}
		w.st[i] = next
	case evLease:
		for j, n := range memberNames {
			var want bool
			if m := o.members[n]; m != nil && m.leaseExpired(now, c.cfg.Lease) {
				want = m.markLost()
			}
			next, _ := step(w.st[j], event{kind: evLease, now: now}, &c.cfg)
			if got := w.st[j].live() && !next.live(); got != want {
				c.fail("lease check on %s lost=%v, oracle %v", n, got, want)
			}
			w.st[j] = next
		}
	default:
		switch e.kind {
		case evFrame:
			om.frame(now)
		case evConnUp:
			om.attach(now)
		case evConnDown:
			om.detach()
		case evExpire:
			om.markLost()
		case evPromote:
			om.promote()
		}
		w.st[i], _ = step(w.st[i], event{kind: e.kind, now: now}, nil)
	}
	c.invariants(o, w, &prev, now)
}

func (c *membershipCheck) invariants(o *oracleCoord, w, prev *tableWorld, now time.Time) {
	for i, name := range memberNames {
		s, m := w.st[i], o.members[name]
		if m == nil {
			if s.phase != vacant {
				c.fail("%s is %v, the oracle never admitted it", name, s.phase)
			}
			continue
		}
		same := s.phase != vacant && !s.live() == m.lost && (s.phase == quarantined) == m.quarantined &&
			s.token == m.token && s.flaps == m.flaps && s.lastHeard.Equal(m.lastHeard) &&
			s.absent() == m.absent() && s.serving() == m.serving() &&
			s.healed(now, c.cfg.HealDwell) == m.healed(now, c.cfg.HealDwell)
		if same && m.rejoining {
			same = s.rejoinedAt.Equal(m.rejoinedAt)
		}
		if same && !m.lost {
			same = s.proven() == m.proven && s.attached() == m.conn && !s.rejoinedAt.IsZero() == m.rejoining
		}
		if !same {
			c.fail("%s state %+v, oracle %+v", name, s, *m)
		}
		// The live token is the latest mint: DecodeState's replay rule.
		latest := 0
		for k := w.tokens; k > 0 && latest == 0; k-- {
			if w.mints[i]&(1<<k) != 0 {
				latest = k
			}
		}
		if s.ord != latest || s.token != mintedToken(latest, i) {
			c.fail("%s holds %q (ord %d), latest mint is %d", name, s.token, s.ord, latest)
		}
		if prev.st[i].phase == quarantined && s.phase != quarantined {
			c.fail("%s left quarantine for %v", name, s.phase)
		}
		// At most one live token per name: no other mint opens it, and a
		// quarantined name opens to none. (A hello's verdict does not
		// depend on the instant, so an unchanged name needs no new probe.)
		if s == prev.st[i] && w.mints[i] == prev.mints[i] {
			continue
		}
		for k := 1; k <= w.tokens; k++ {
			if w.mints[i]&(1<<k) == 0 || (k == s.ord && s.phase != quarantined) {
				continue
			}
			for _, rj := range []bool{false, true} {
				h := &Hello{Name: name, Token: mintedToken(k, i), Rejoin: rj}
				if _, v := step(s, event{kind: evHello, now: now, hello: h}, &c.cfg); v.reason == "" {
					c.fail("%s opened to %q while it holds %q in %v", name, h.Token, s.token, s.phase)
				}
			}
		}
	}
}

// TestMembershipMatchesOracle enumerates every event sequence over two
// names, up to memberDepth events, under each Rejoin, FlapTolerance and
// Workers setting. After every event the decision table must agree with
// the oracle — verdict, reason, retryable, mint, state and predicates —
// and the fencing invariants must hold.
func TestMembershipMatchesOracle(t *testing.T) {
	const memberDepth = 5
	alpha := memberAlphabet()
	total := 0
	for _, rejoin := range []bool{false, true} {
		for _, tol := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				cfg := Config{Workers: workers, Rejoin: rejoin, FlapTolerance: tol,
					Heartbeat: time.Second, Lease: 2 * time.Second, HealDwell: 2 * time.Second}
				c := &membershipCheck{t: t, cfg: cfg, alpha: alpha}
				c.explore(&oracleCoord{cfg: &c.cfg, members: map[string]*oracleMember{}}, tableWorld{}, memberDepth)
				total += c.steps
			}
		}
	}
	t.Logf("%d events checked at depth %d", total, memberDepth)
}

// TestQuarantineConventionShared holds failover.Controller and the
// coordinator to one flap rule: a device that flaps Flaps extra times is
// lost 1+Flaps times, and both quarantine it exactly when that exceeds
// the tolerance.
func TestQuarantineConventionShared(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for tol := 1; tol <= 3; tol++ {
		for flaps := 0; flaps <= 3; flaps++ {
			ctl := &failover.Controller{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}, FlapTolerance: tol}
			rep, err := ctl.Run(&chaos.Schedule{Faults: []chaos.Fault{{
				Kind: chaos.KindCrash, Stage: 1, AtSec: clean.LatencySec * 0.6,
				Permanent: true, RecoverAfterSec: clean.LatencySec * 0.05, Flaps: flaps,
			}}})
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{Workers: 1, Rejoin: true, FlapTolerance: tol}
			var w tableWorld
			now := checkEpoch
			w.st[0], _ = w.hello(0, &Hello{Name: "w"}, now, &cfg)
			coordQuarantined := false
			for loss := 1; loss <= 1+flaps && !coordQuarantined; loss++ {
				w.st[0], _ = step(w.st[0], event{kind: evExpire}, nil)
				next, v := w.hello(0, &Hello{Name: "w", Token: w.st[0].token, Rejoin: true}, now, &cfg)
				w.st[0] = next
				coordQuarantined = next.phase == quarantined
				if coordQuarantined != (!v.retry && strings.Contains(v.reason, "quarantined")) {
					t.Fatalf("tolerance %d, loss %d: verdict %+v in %v", tol, loss, v, next.phase)
				}
			}
			if rep.Quarantined != coordQuarantined || rep.Quarantined != failover.Quarantined(1+flaps, tol) {
				t.Errorf("tolerance %d, %d flaps: controller quarantined=%v, coordinator %v, rule %v",
					tol, flaps, rep.Quarantined, coordQuarantined, failover.Quarantined(1+flaps, tol))
			}
		}
	}
}
