package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	rt "repro/internal/runtime"
)

// fakeLink is a connection the test holds both ends of: it records what
// the coordinator sends, fails every send while fail is set or once it is
// closed, and runs onSend after each send that goes out.
type fakeLink struct {
	sent   []*Message
	fail   bool
	closed bool
	onSend func(*Message)
}

func (l *fakeLink) send(m *Message) error {
	if l.fail || l.closed {
		return errors.New("connection reset by peer")
	}
	l.sent = append(l.sent, m)
	if l.onSend != nil {
		l.onSend(m)
	}
	return nil
}

func (l *fakeLink) close() { l.closed = true }

// greet hands co the events l's reader would post for a worker that
// connects and says h, and returns l.
func greet(co *coordinator, l *fakeLink, h Hello) *fakeLink {
	h.Version = ProtocolVersion
	co.handle(netEvent{l: l, accepted: true})
	co.handle(netEvent{l: l, msg: &Message{Type: MsgHello, Hello: &h}})
	return l
}

func types(msgs []*Message) []MsgType {
	var out []MsgType
	for _, m := range msgs {
		out = append(out, m.Type)
	}
	return out
}

// TestByeOnReattach: a worker whose connection dropped after its last
// answer was read is mid-reattach when the run ends. Shutdown waits for
// it and says Bye on the connection it comes back on; told nothing, the
// worker would redial a finished coordinator until its retry budget ran
// out.
func TestByeOnReattach(t *testing.T) {
	s := distSpec(t)
	co := testCoordinator(t, Config{Workers: 1, Spec: s, Plan: distPlan(t, s)})
	l1 := greet(co, &fakeLink{}, Hello{Name: "w"})
	co.handle(netEvent{l: l1, msg: &Message{Type: MsgHeartbeat}})
	co.handle(netEvent{l: l1, err: io.EOF})

	// The worker redials under its token and hangs up once told Bye.
	l2 := &fakeLink{}
	l2.onSend = func(msg *Message) {
		if msg.Type == MsgBye {
			co.events <- netEvent{l: l2, err: io.EOF}
		}
	}
	co.events <- netEvent{l: l2, accepted: true}
	co.events <- netEvent{l: l2, msg: &Message{Type: MsgHello,
		Hello: &Hello{Version: ProtocolVersion, Name: "w", Token: l1.sent[0].Welcome.Token}}}
	co.shutdown("done")

	if got, want := types(l2.sent), []MsgType{MsgWelcome, MsgBye}; !slices.Equal(got, want) {
		t.Errorf("the reattached worker was sent %v, want %v", got, want)
	}
	if _, open := co.conns[l2]; open {
		t.Error("shutdown returned before the worker hung up")
	}
	if got := types(l1.sent); len(got) != 1 {
		t.Errorf("the dropped connection was sent %v after its welcome", got[1:])
	}
}

// TestFailedSendLandsLossAtNextPass: a worker answers pass 2 and dies
// inside pass 3, so pass 3's send fails while pass 2's answer waits
// unread on the connection. Pass 2 is still collected from it, and the
// loss lands at the engine's call into pass 3.
func TestFailedSendLandsLossAtNextPass(t *testing.T) {
	s := distSpec(t)
	co := testCoordinator(t, Config{Workers: 1, Spec: s, Plan: distPlan(t, s), Lease: time.Nanosecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	co.ctx = ctx
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	co.tick = tick.C

	w := greet(co, &fakeLink{}, Hello{Name: "w"})
	m := co.members["w"]
	w.onSend = func(msg *Message) { w.fail = msg.Type == MsgStageBatch } // dead after one batch
	pass := func(r int) *flight { return &flight{req: &StageBatch{Stages: []int{0}, Batches: []int{4}, Round: r}} }
	f2, f3 := pass(2), pass(3)
	b := &stageBuffer{co: co, times: map[stageKey][]float64{}, flights: map[*member][]*flight{m: {f2, f3}}}
	b.flush(m)
	if w.closed || m.conn != nil || f2.w != link(w) || f3.w != nil {
		t.Errorf("after the failed send: closed=%v attached=%v, pass 2 out=%v, pass 3 out=%v; want pass 2 alone out on the open connection",
			w.closed, m.conn != nil, f2.w != nil, f3.w != nil)
	}

	// Pass 2's answer is read, then the reset.
	co.events <- netEvent{l: w, msg: &Message{Type: MsgStageBatchResult, ID: f2.id,
		StageBatchResult: &StageBatchResult{Seconds: []float64{0.25}}}}
	co.events <- netEvent{l: w, err: io.EOF}
	if err := b.collect(m, f2, 0); err != nil {
		t.Fatalf("pass 2: %v, want its answer", err)
	}
	if got := b.times[stageKey{0, 4, 2, false}]; len(got) != 1 || got[0] != 0.25 {
		t.Errorf("pass 2 buffered %v, want [0.25]", got)
	}
	var lost *rt.StageLostError
	if err := b.collect(m, f3, 0); !errors.As(err, &lost) {
		t.Fatalf("pass 3: %v, want the worker lost", err)
	}
}

// TestCoreInterleavings feeds the coordinator seeded interleavings of
// socket events for two names — hellos with no token or one welcomed
// earlier (current or stale), with and without Rejoin; frames; closes;
// batch sends, some of which fail; and lease sweeps — and checks after
// every event that a name opens to no token but its current one, that a
// member holds a connection exactly while it is attached, and that no
// pending request waits on a closed connection.
func TestCoreInterleavings(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		co := testCoordinator(t, Config{Workers: 2, Spec: s, Plan: p, Rejoin: seed%2 == 0,
			Heartbeat: time.Second, Lease: 3 * time.Second, HealDwell: 2 * time.Second})
		co.now = checkEpoch
		b := &stageBuffer{co: co, times: map[stageKey][]float64{}, flights: map[*member][]*flight{}}
		var links []*fakeLink           // every connection, in dial order
		tokens := map[string][]string{} // every token welcomed, by name
		var trace []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, after %v: %s", seed, trace, fmt.Sprintf(format, args...))
		}
		for n := 0; n < 60; n++ {
			co.now = co.now.Add(time.Duration(rng.IntN(1500)) * time.Millisecond)
			name := memberNames[rng.IntN(2)]
			m := co.members[name]
			var open []*fakeLink
			for _, l := range links {
				if _, ok := co.conns[l]; ok {
					open = append(open, l)
				}
			}
			switch k := rng.IntN(5); {
			case k == 0:
				h := Hello{Name: name, Rejoin: rng.IntN(2) == 0}
				if ts := tokens[name]; len(ts) > 0 && rng.IntN(3) > 0 {
					h.Token = ts[rng.IntN(len(ts))]
				}
				l := greet(co, &fakeLink{fail: rng.IntN(8) == 0}, h)
				links = append(links, l)
				if len(l.sent) > 0 && l.sent[0].Type == MsgWelcome {
					tokens[name] = append(tokens[name], l.sent[0].Welcome.Token)
				}
				trace = append(trace, fmt.Sprintf("hello(%s, token=%q, rejoin=%v)", name, h.Token, h.Rejoin))
			case k == 1 && len(open) > 0:
				i := rng.IntN(len(open))
				msg := &Message{Type: MsgHeartbeat}
				var out []*flight
				for _, nm := range memberNames {
					if mm := co.members[nm]; mm != nil {
						for _, f := range b.flights[mm] {
							if co.pending[f.id] == f && f.w == link(open[i]) {
								out = append(out, f)
							}
						}
					}
				}
				if len(out) > 0 && rng.IntN(2) == 0 {
					f := out[rng.IntN(len(out))]
					msg = &Message{Type: MsgStageBatchResult, ID: f.id, StageBatchResult: &StageBatchResult{Seconds: []float64{1}}}
				}
				co.handle(netEvent{l: open[i], msg: msg})
				trace = append(trace, fmt.Sprintf("frame(conn %d, %s %d)", slices.Index(links, open[i]), msg.Type, msg.ID))
			case k == 2 && len(open) > 0:
				i := rng.IntN(len(open))
				co.handle(netEvent{l: open[i], err: io.EOF})
				trace = append(trace, fmt.Sprintf("close(conn %d)", slices.Index(links, open[i])))
			case k == 3:
				co.sweep()
				trace = append(trace, "sweep")
			case k == 4 && m != nil && m.conn != nil:
				b.flights[m] = append(b.flights[m], &flight{req: &StageBatch{Stages: []int{0}, Batches: []int{1}, Round: n}})
				m.conn.(*fakeLink).fail = rng.IntN(4) == 0
				b.flush(m)
				trace = append(trace, fmt.Sprintf("send(%s)", name))
			default:
				continue
			}

			for _, name := range memberNames {
				m := co.members[name]
				if m == nil {
					continue
				}
				for _, tok := range tokens[name] {
					for _, rj := range []bool{false, true} {
						h := &Hello{Name: name, Token: tok, Rejoin: rj}
						if _, v := step(m.st, event{kind: evHello, now: co.now, hello: h}, &co.cfg); v.reason == "" && tok != m.st.token {
							fail("%s opens to %q while it holds %q in %v", name, tok, m.st.token, m.st.phase)
						}
					}
				}
				if (m.conn != nil) != m.st.attached() {
					fail("%s is %v and holds a connection: %v", name, m.st.phase, m.conn != nil)
				}
				if m.conn != nil && (co.conns[m.conn] != m || m.conn.(*fakeLink).closed) {
					fail("%s holds a connection that is closed or not its own", name)
				}
			}
			for id, f := range co.pending {
				l, _ := f.w.(*fakeLink)
				if _, tracked := co.conns[f.w]; l == nil || l.closed || !tracked || f.id != id {
					fail("request %d is pending on a closed connection", id)
				}
			}
			for l := range co.conns {
				if l.(*fakeLink).closed {
					fail("a closed connection is still tracked")
				}
			}
		}
	}
}
