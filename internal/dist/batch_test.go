package dist

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/core/retry"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiler"
	rt "repro/internal/runtime"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

// TestOneWritePerSend: a frame leaves in one Write — header and payload
// together — and arrives intact.
func TestOneWritePerSend(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countingConn{Conn: a}
	tx, rx := newWire(cc, nil), newWire(b, nil)
	msgs := []*Message{
		{Type: MsgHeartbeat},
		{Type: MsgWelcome, Welcome: &Welcome{Token: "t", Plan: NewPlanPayload(s, p)}},
		{Type: MsgStageBatch, ID: 7, StageBatch: &StageBatch{Stages: []int{0, 2}, Batches: []int{4, 4}, Round: 3}},
		{Type: MsgStageBatchResult, ID: 7, StageBatchResult: &StageBatchResult{Seconds: []float64{0.1, 0.2, 0.3, 0.4}}},
	}
	got := make(chan *Message, len(msgs))
	go func() {
		for range msgs {
			m, err := rx.recv()
			if err != nil {
				close(got)
				return
			}
			got <- m
		}
	}()
	for i, m := range msgs {
		if err := tx.send(m); err != nil {
			t.Fatal(err)
		}
		if cc.writes != i+1 {
			t.Fatalf("after %d sends the conn saw %d writes, want one per send", i+1, cc.writes)
		}
		if r := <-got; !reflect.DeepEqual(r, m) {
			t.Errorf("frame %d arrived as %+v, sent %+v", i, r, m)
		}
	}
}

// TestStageBatchWithoutTasksRejected: a batch must name at least one
// stage and one micro-batch, on either side of the wire.
func TestStageBatchWithoutTasksRejected(t *testing.T) {
	for _, sb := range []*StageBatch{nil, {Batches: []int{4}}, {Stages: []int{0}}} {
		if err := (&Message{Type: MsgStageBatch, StageBatch: sb}).validate(); err == nil {
			t.Errorf("stage batch %+v validated", sb)
		}
	}
}

// firstCallLoss runs the engine in process and fails it, as a lost
// worker would, at the first call on an owned stage in pass (0 is
// prefill, r is decode round r): where the whole-batch rule lands a
// death inside that pass's batch.
func firstCallLoss(t *testing.T, s *assigner.Spec, p *assigner.Plan, owned []int, pass int) *rt.DeviceLostError {
	t.Helper()
	eng, err := rt.NewEngine(s, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.StageTimer = func(stage, batch, round int, prefill bool) (float64, error) {
		if prefill == (pass == 0) && (prefill || round == pass) && slices.Contains(owned, stage) {
			return 0, &rt.StageLostError{Stage: stage}
		}
		return rt.StageTime(s, p, nil, stage, batch, round, prefill)
	}
	_, err = eng.Run()
	var lost *rt.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("pass %d: want a device loss, got %v", pass, err)
	}
	return lost
}

// TestWorkerDeathLanding pins where an injected worker death lands. A
// worker answers whole stage batches only: when FailAfterCalls falls
// inside a batch it dies answering none of it, so the loss surfaces at
// the engine's first call into that batch, on a stage the dead worker
// owns. FailAfterCalls runs one below, at and one above the end of the
// victim's prefill batch and of its decode round 1 batch.
func TestWorkerDeathLanding(t *testing.T) {
	scenarios := []struct {
		name   string
		spec   func(testing.TB) *assigner.Spec
		victim int   // index of the dying worker: 0 is worker-a
		owned  []int // the stages it owns
	}{
		{"worker-b owns stage 1", distSpec, 1, []int{1}},
		{"worker-a owns stages 0 and 2", distSpec3, 0, []int{0, 2}},
	}
	for _, sc := range scenarios {
		s := sc.spec(t)
		p := distPlan(t, s)
		if p.NumStages() != 1+slices.Max(sc.owned) {
			t.Fatalf("%s: plan has %d stages", sc.name, p.NumStages())
		}
		clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		B := s.Work.GlobalBatch
		pre := len(sc.owned) * len(rt.MicroBatches(B, p.PrefillMB))
		dec := len(sc.owned) * len(rt.MicroBatches(B, p.DecodeMB))
		// The victim's batch that n evaluations end inside.
		lands := func(n int) int {
			if n < pre {
				return 0
			}
			return 1 + (n-pre)/dec
		}
		for _, n := range slices.Compact([]int{pre - 1, pre, pre + 1, pre + dec - 1, pre + dec, pre + dec + 1}) {
			want := firstCallLoss(t, s, p, sc.owned, lands(n))
			t.Run(fmt.Sprintf("%s/fail-after-%d", sc.name, n), func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				ln := listen(t)
				join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
					if i == sc.victim {
						cfg.FailAfterCalls = n
					}
				})
				res, err := Serve(ctx, Config{
					Listener: ln, Workers: 2, Spec: s, Plan: p,
					Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Lost, want) {
					t.Errorf("loss landed at %+v, the whole-batch rule predicts %+v", res.Lost, want)
				}
				if res.TotalTokens != clean.TokensOut {
					t.Errorf("token conservation violated: %d vs clean %d", res.TotalTokens, clean.TokensOut)
				}
				werrs := join()
				if !errors.Is(werrs[sc.victim], ErrInjectedDeath) {
					t.Errorf("the victim should report injected death, got %v", werrs[sc.victim])
				}
				if survivor := werrs[1-sc.victim]; survivor != nil {
					t.Errorf("survivor exit: %v", survivor)
				}
			})
		}
	}
}

// localLeg runs epoch pr's plan in process from its start round: what
// the coordinator's leg on that epoch must reproduce exactly.
func localLeg(t *testing.T, s *assigner.Spec, pr *PlanRecord) rt.Stats {
	t.Helper()
	spec := *s
	spec.Cluster = pr.Payload.Cluster
	eng, err := rt.NewEngine(&spec, pr.Payload.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.StartRound = pr.StartRound
	st, err := eng.Run()
	if err != nil {
		t.Fatalf("epoch %d in process: %v", pr.Epoch, err)
	}
	return st
}

// armedGateTimer is the roofline timer that, once armed, holds every
// evaluation until release closes.
type armedGateTimer struct {
	armed   *atomic.Bool
	release <-chan struct{}
}

func (g armedGateTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	if g.armed.Load() {
		<-g.release
	}
	return assigner.ProfilerTimer{}.Layer(gpu, cfg, w)
}

// TestStaleBufferNeverAnswers: stage batches are buffered for one engine
// run only. In both cases worker-b (stage 1 of 3) dies inside its
// prefill batch, while worker-a's prefill times for stages 0 and 2 are
// buffered and mostly unconsumed; the degraded epoch (2 stages) re-runs
// prefill on a new layer split, under the same keys. With heal, the
// degraded run halts for the restore right after worker-a's prefill
// batch arrives, so the restored epoch re-runs prefill past a buffer
// full of degraded times. Every later leg must equal the in-process run
// of its epoch's plan from its start round.
func TestStaleBufferNeverAnswers(t *testing.T) {
	s := distSpec3(t)
	p := distPlan(t, s)
	dieAt := len(rt.MicroBatches(s.Work.GlobalBatch, p.PrefillMB)) - 1
	run := func(t *testing.T, heal bool) (*Result, *durable) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		ln := listen(t)
		dir := t.TempDir()
		// worker-a's evaluations in the degraded epoch wait until worker-b
		// has rejoined and held its lease for twice the dwell, so the
		// restore halt fires at the call after worker-a's prefill batch.
		var bDead atomic.Bool
		var opened sync.Once
		release := make(chan struct{})
		open := func() { opened.Do(func() { close(release) }) }
		dwell := 50 * time.Millisecond
		var errA, errB error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			errA = RunWorker(ctx, WorkerConfig{Name: "worker-a", Connect: ln.Addr().String(), RetrySeed: 100,
				Timer: armedGateTimer{&bDead, release}})
		}()
		go func() {
			defer wg.Done()
			// The holds outlast a few heartbeats, so worker-b has proven its
			// token when it dies and its lease must expire.
			errB = RunWorker(ctx, WorkerConfig{Name: "worker-b", Connect: ln.Addr().String(), RetrySeed: 101,
				FailAfterCalls: dieAt, Hold: 20 * time.Millisecond})
			if !errors.Is(errB, ErrInjectedDeath) || !heal {
				return
			}
			bDead.Store(true)
			errB = RunWorker(ctx, WorkerConfig{Name: "worker-b", Connect: ln.Addr().String(), RetrySeed: 102,
				Rejoin: true, Retry: retry.Policy{MaxAttempts: 60, BaseDelaySec: 0.02, Factor: 1.3, MaxDelaySec: 0.1, JitterFrac: 0.2}})
		}()
		res, err := Serve(ctx, Config{
			Listener: ln, Workers: 2, Spec: s, Plan: p,
			Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond, JournalDir: dir,
			Rejoin: heal, HealDwell: dwell,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "rejoined") {
					time.AfterFunc(2*dwell, open)
				}
			},
		})
		open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if errA != nil || (heal && errB != nil) {
			t.Errorf("worker exits: %v, %v", errA, errB)
		}
		if res.LostWorker != "worker-b" || res.Lost.PrefillDone {
			t.Fatalf("want worker-b lost inside prefill, got %q at %+v", res.LostWorker, res.Lost)
		}
		return res, replayDir(t, dir)
	}
	t.Run("loss", func(t *testing.T) {
		res, st := run(t, false)
		if want := localLeg(t, s, st.Plans[1]); !reflect.DeepEqual(res.Resumed, want) {
			t.Errorf("degraded leg diverged from its plan run in process:\nremote: %+v\nlocal:  %+v", res.Resumed, want)
		}
	})
	t.Run("restore halt", func(t *testing.T) {
		res, st := run(t, true)
		// Past virtual time 0 and inside prefill: after the first fetch.
		if h := res.RestoreHalt; !res.Restored || h.AtSec <= 0 || h.PrefillDone {
			t.Fatalf("want the restore halt inside the degraded prefill, got restored=%v halt %+v", res.Restored, h)
		}
		if want := localLeg(t, s, st.Plans[2]); !reflect.DeepEqual(res.Final, want) {
			t.Errorf("restored leg diverged from its plan run in process:\nremote: %+v\nlocal:  %+v", res.Final, want)
		}
	})
}

// TestFailedSendKeepsAnswers: a batch that fails to send detaches its
// worker but leaves the connection to its reader. A worker that answers
// pass r and dies inside pass r + 1 resets the connection while later
// passes are still being sent to it and pass r's answer may wait unread;
// closing the connection there would drop that answer and land the loss
// a pass early.
func TestFailedSendKeepsAnswers(t *testing.T) {
	co := bareCoordinator(Config{})
	w, m := &fakeLink{fail: true}, &member{name: "worker-a", st: state{phase: active}}
	co.attach(m, w)
	f := &flight{req: &StageBatch{Stages: []int{0}, Batches: []int{4}, Round: 2}}
	(&stageBuffer{co: co, flights: map[*member][]*flight{m: {f}}}).flush(m)
	if w.closed {
		t.Error("a failed send closed the connection under its unread answers")
	}
	if m.conn != nil || m.st.phase != detached {
		t.Errorf("a failed send left the worker %v on %p, want it detached", m.st.phase, m.conn)
	}
	if f.w != nil || co.pending[f.id] != nil {
		t.Error("the batch that failed to send must wait to go again")
	}
}

// TestAwaitReturnsAnswerBeforeClose: an answer read before its
// connection closed, or before its worker's lease expired, is returned,
// not lost to the close. With a pass out ahead a worker can answer one
// pass and die inside the next; losing that answer would land the loss a
// pass early. Here the close or the loss is handled before the batch is
// collected.
func TestAwaitReturnsAnswerBeforeClose(t *testing.T) {
	for _, cut := range []string{"connection", "lease"} {
		for id := 1; id <= 64; id++ {
			co := bareCoordinator(Config{})
			w, m := &fakeLink{}, &member{name: "worker-a", st: state{phase: active}}
			co.attach(m, w)
			f := &flight{req: &StageBatch{Stages: []int{0}, Batches: []int{4}, Round: 2}}
			b := &stageBuffer{co: co, times: map[stageKey][]float64{}, flights: map[*member][]*flight{m: {f}}}
			b.flush(m)
			co.handle(netEvent{l: w, msg: &Message{Type: MsgStageBatchResult, ID: f.id,
				StageBatchResult: &StageBatchResult{Seconds: []float64{float64(id)}}}})
			if cut == "connection" {
				co.handle(netEvent{l: w, err: io.EOF})
			} else {
				co.markLost(m)
			}
			err := b.collect(m, f, 0)
			if got := b.times[stageKey{0, 4, 2, false}]; err != nil || len(got) != 1 || got[0] != float64(id) {
				t.Fatalf("%s closed: collect %d buffered %v, %v; want its answer", cut, id, got, err)
			}
		}
	}
}

// TestNoOrphanedRequests: every batch an engine run still has out when
// it ends is unregistered, so no request outlives its run — after a
// worker loss with a survivor's next pass out, a restore halt, and an
// injected coordinator crash.
func TestNoOrphanedRequests(t *testing.T) {
	s2, s3 := distSpec(t), distSpec3(t)
	p2, p3 := distPlan(t, s2), distPlan(t, s3)
	pre2 := len(rt.MicroBatches(s2.Work.GlobalBatch, p2.PrefillMB))
	pre3 := len(rt.MicroBatches(s3.Work.GlobalBatch, p3.PrefillMB))
	cases := []struct {
		name       string
		s          *assigner.Spec
		p          *assigner.Plan
		dieAt      int // worker-b's FailAfterCalls
		heal       bool
		crashAfter int
	}{
		{"loss inside decode round 1", s2, p2, pre2 + 1, false, 0},
		{"loss inside prefill", s3, p3, pre3 - 1, false, 0},
		{"restore halt", s3, p3, pre3 - 1, true, 0},
		{"coordinator crash", s2, p2, 0, false, 3 * pre2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			ln := listen(t)
			// As in TestStaleBufferNeverAnswers: with heal, worker-a's
			// degraded evaluations wait until worker-b has rejoined and held
			// its lease for twice the dwell.
			var bDead atomic.Bool
			var opened sync.Once
			release := make(chan struct{})
			open := func() { opened.Do(func() { close(release) }) }
			dwell := 50 * time.Millisecond
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				_ = RunWorker(ctx, WorkerConfig{Name: "worker-a", Connect: ln.Addr().String(), RetrySeed: 100,
					Timer: armedGateTimer{&bDead, release}})
			}()
			go func() {
				defer wg.Done()
				err := RunWorker(ctx, WorkerConfig{Name: "worker-b", Connect: ln.Addr().String(), RetrySeed: 101,
					FailAfterCalls: c.dieAt, Hold: 20 * time.Millisecond})
				if !errors.Is(err, ErrInjectedDeath) || !c.heal {
					return
				}
				bDead.Store(true)
				_ = RunWorker(ctx, WorkerConfig{Name: "worker-b", Connect: ln.Addr().String(), RetrySeed: 102,
					Rejoin: true, Retry: retry.Policy{MaxAttempts: 60, BaseDelaySec: 0.02, Factor: 1.3, MaxDelaySec: 0.1, JitterFrac: 0.2}})
			}()
			co := &coordinator{}
			res, err := co.serve(ctx, Config{
				Listener: ln, Workers: 2, Spec: c.s, Plan: c.p,
				Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
				Rejoin: c.heal, HealDwell: dwell, CoordFailAfter: c.crashAfter,
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "rejoined") {
						time.AfterFunc(2*dwell, open)
					}
				},
			})
			open()
			switch {
			case c.crashAfter > 0 && !errors.Is(err, ErrInjectedCoordCrash):
				t.Fatalf("want the injected crash, got %v", err)
			case c.crashAfter == 0 && err != nil:
				t.Fatal(err)
			case c.dieAt > 0 && res.LostWorker != "worker-b":
				t.Fatalf("want worker-b lost, got %q", res.LostWorker)
			case c.heal && !res.Restored:
				t.Fatal("want a restore")
			}
			cancel()
			wg.Wait()
			if n := len(co.pending); n != 0 {
				t.Errorf("%d requests still pending after Serve returned", n)
			}
		})
	}
}

// batchTap wraps a listener and checks, on every connection it accepts,
// the stage batches the coordinator writes against the answers it reads:
// a worker receives its batches in pass order, never holds more than two
// unanswered, and is never asked for a round at or past Generate.
type batchTap struct {
	net.Listener
	generate int

	mu       sync.Mutex
	problems []string
	peak     int // the most batches any worker held unanswered
}

func (l *batchTap) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, l: l, pass: -1}, nil
}

type tapConn struct {
	net.Conn
	l    *batchTap
	pass int // the last pass written: 0 is prefill, r is decode round r
	out  int // batches written and not yet answered
	rbuf []byte
}

// Write sees one whole frame: writeFrame hands each over in one Write.
func (c *tapConn) Write(b []byte) (int, error) {
	c.l.observe(c, b[4:], true)
	return c.Conn.Write(b)
}

// Read reassembles the frames the coordinator reads.
func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rbuf = append(c.rbuf, b[:n]...)
	for len(c.rbuf) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(c.rbuf))
		if len(c.rbuf) < size {
			break
		}
		c.l.observe(c, c.rbuf[4:size], false)
		c.rbuf = c.rbuf[size:]
	}
	return n, err
}

func (l *batchTap) observe(c *tapConn, frame []byte, written bool) {
	var m Message
	err := json.Unmarshal(frame, &m)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err != nil:
		l.problems = append(l.problems, fmt.Sprintf("unreadable frame: %v", err))
	case written && m.Type == MsgStageBatch:
		sb := m.StageBatch
		pass := sb.Round
		if sb.Prefill {
			pass = 0
		}
		if pass <= c.pass {
			l.problems = append(l.problems, fmt.Sprintf("pass %d sent after pass %d", pass, c.pass))
		}
		if sb.Round >= l.generate {
			l.problems = append(l.problems, fmt.Sprintf("round %d asked for, generate is %d", sb.Round, l.generate))
		}
		c.pass, c.out = pass, c.out+1
		if l.peak = max(l.peak, c.out); c.out > passesInFlight {
			l.problems = append(l.problems, fmt.Sprintf("%d batches unanswered at pass %d", c.out, pass))
		}
	case !written && m.Type == MsgStageBatchResult:
		c.out--
	}
}

// countingTimer is the roofline timer counting its layer evaluations.
type countingTimer struct{ n *atomic.Int64 }

func (c countingTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	c.n.Add(1)
	return assigner.ProfilerTimer{}.Layer(gpu, cfg, w)
}

// TestFrameBudget: on a cluster-3 plan (4 stages on 2 workers, 32
// prefill and 4 decode micro-batches, 100 tokens) the control plane
// sends one request and one answer per worker per round — at most 0.4
// frames per stage call — while the engine still makes one stage call
// per task and the workers still evaluate every task. Each worker
// receives its batches in pass order, at most passesInFlight passes out
// at once and at some point exactly that many, and never a round past
// the last.
func TestFrameBudget(t *testing.T) {
	s, err := experiments.SpecFor(3, experiments.DefaultWork)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallelism = 1
	p := distPlan(t, s)
	var localEvals, remoteEvals atomic.Int64
	eng, err := rt.NewEngine(s, p, countingTimer{&localEvals})
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	eng.StageTimer = func(stage, batch, round int, prefill bool) (float64, error) {
		tasks++
		return rt.StageTime(s, p, eng.Timer, stage, batch, round, prefill)
	}
	local, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim, ctrl := obs.NewRegistry(), obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := &batchTap{Listener: listen(t), generate: s.Work.Generate}
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Timer, cfg.CtrlObs = countingTimer{&remoteEvals}, ctrl
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: time.Hour, Obs: sim, CtrlObs: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
	if !reflect.DeepEqual(res.First, local) {
		t.Errorf("distributed stats diverged:\nremote: %+v\nlocal:  %+v", res.First, local)
	}
	calls := sim.Counter("llmpq_dist_stage_calls_total").Value()
	if calls != float64(tasks) {
		t.Errorf("%.0f stage calls, want one per task: %d", calls, tasks)
	}
	if remoteEvals.Load() != localEvals.Load() {
		t.Errorf("workers evaluated %d layers, the in-process run %d", remoteEvals.Load(), localEvals.Load())
	}
	frames := ctrl.Counter("llmpq_dist_frames_sent_total").Value()
	if perCall := frames / calls; perCall > 0.4 {
		t.Errorf("%.0f frames for %.0f stage calls: %.3f per call, budget 0.4", frames, calls, perCall)
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for _, p := range ln.problems {
		t.Error(p)
	}
	if ln.peak != passesInFlight {
		t.Errorf("a worker held at most %d batches unanswered, want %d", ln.peak, passesInFlight)
	}
}
