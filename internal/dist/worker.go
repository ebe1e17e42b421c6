package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/assigner"
	"repro/internal/core/retry"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Name is the worker's stable identity; reconnects present it with
	// the rejoin token so the coordinator reattaches rather than
	// re-admitting.
	Name string
	// Connect is the coordinator's host:port.
	Connect string
	// Timer evaluates layer times; nil uses the roofline profiler —
	// which the coordinator assumes, so only override it in tests.
	Timer assigner.LayerTimer
	// Hold injects an artificial wall-clock delay before every
	// stage-time evaluation, so a batch of n tasks holds n times — pacing
	// for demos and deadline tests.
	Hold time.Duration
	// FailAfterCalls, when positive, makes the worker die (sever the
	// connection and return an error) once it has evaluated that many
	// tasks — the test hook for lease-expiry failover without killing a
	// process. Death takes the whole batch that crosses the count: the
	// worker answers none of it, as a crash mid-batch would. Batches
	// arrive up to seven passes ahead of the engine, so the count
	// includes passes a run that halts mid-pass never consumes.
	FailAfterCalls int
	// Rejoin marks every hello as a heal-capable rejoin: a coordinator
	// running with Config.Rejoin re-admits this name even after its
	// lease expired (a SIGKILLed worker restarted under the same name),
	// instead of fencing it out of the closed membership.
	Rejoin bool
	// CtrlObs receives control-plane metrics (reconnects, heartbeats
	// sent, deadline aborts); wall-clock-dependent, never byte-diffed.
	// The name carries the role: the registrysplit analyzer keys the
	// sim/ctrl registry split on it.
	CtrlObs *obs.Registry
	// Retry shapes the reconnect backoff; the zero value uses
	// retry.Default(). RetrySeed keeps the jitter deterministic.
	Retry     retry.Policy
	RetrySeed int64

	Logf func(format string, args ...any)
}

// errBye is the clean-shutdown sentinel inside the worker loop.
var errBye = errors.New("dist: coordinator said bye")

// ErrInjectedDeath is returned by RunWorker when FailAfterCalls fires.
var ErrInjectedDeath = errors.New("dist: injected worker death")

// RunWorker joins the coordinator and serves stage-time evaluations
// until told bye, the context ends, or — after a connection loss — the
// reconnect budget is exhausted. Transient disconnects are healed with
// the deterministic jittered backoff of internal/core/retry; the worker
// reattaches under its rejoin token so in-flight membership survives as
// long as the lease allows.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" || cfg.Connect == "" {
		return fmt.Errorf("dist: worker needs a name and a coordinator address")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = retry.Default()
	}
	ws := &workerState{cfg: cfg}
	for {
		sess, err := ws.connect(ctx)
		if err != nil {
			return err
		}
		err = ws.serve(ctx, sess)
		switch {
		case errors.Is(err, errBye):
			cfg.Logf("worker %s: clean shutdown", cfg.Name)
			return nil
		case errors.Is(err, ErrInjectedDeath):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			cfg.Logf("worker %s: connection lost (%v); reconnecting", cfg.Name, err)
			ws.ctrlInc("llmpq_dist_reconnects_total")
		}
	}
}

// workerState is the identity that survives reconnects.
type workerState struct {
	cfg     WorkerConfig
	token   string
	payload *PlanPayload
	calls   int
}

// session is one live connection plus its membership terms.
type session struct {
	w            *wire
	heartbeatSec float64
}

// connect dials and handshakes under the retry policy. A reject is
// terminal — the coordinator will never admit this worker — while
// dial/handshake transport errors are retried with backoff.
func (ws *workerState) connect(ctx context.Context) (*session, error) {
	var sess *session
	var fatal error
	err := ws.cfg.Retry.DoContext(ctx, ws.cfg.RetrySeed, func(attempt int) error {
		if attempt > 1 {
			ws.ctrlInc("llmpq_dist_reconnect_attempts_total")
		}
		c, err := net.DialTimeout("tcp", ws.cfg.Connect, 5*time.Second)
		if err != nil {
			return err
		}
		w := newWire(c, ws.cfg.CtrlObs)
		hello := &Hello{Version: ProtocolVersion, Name: ws.cfg.Name, Token: ws.token, Rejoin: ws.cfg.Rejoin}
		if err := w.send(&Message{Type: MsgHello, Hello: hello}); err != nil {
			w.close()
			return err
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second)) //llmpq:allow(errdrop): a failed deadline surfaces as the recv error on the next line
		msg, err := w.recv()
		_ = c.SetReadDeadline(time.Time{}) //llmpq:allow(errdrop): clearing a deadline on a dying conn can only fail harmlessly
		if err != nil {
			w.close()
			return err
		}
		switch msg.Type {
		case MsgWelcome:
			ws.token = msg.Welcome.Token
			if msg.Welcome.Plan != nil {
				if err := msg.Welcome.Plan.Validate(); err != nil {
					w.close()
					fatal = err
					return nil
				}
				ws.payload = msg.Welcome.Plan
			}
			sess = &session{w: w, heartbeatSec: msg.Welcome.HeartbeatSec}
			return nil
		case MsgReject:
			w.close()
			if msg.Reject.Retryable {
				// Transient refusal (e.g. a handshake for our name is
				// still in flight): surface as a retryable error so the
				// backoff loop tries again.
				return fmt.Errorf("dist: coordinator rejected worker %s (retryable): %s", ws.cfg.Name, msg.Reject.Reason)
			}
			fatal = fmt.Errorf("dist: coordinator rejected worker %s: %s", ws.cfg.Name, msg.Reject.Reason)
			return nil
		default:
			w.close()
			return fmt.Errorf("dist: expected welcome, got %q", msg.Type)
		}
	}, retry.WallSleep)
	if fatal != nil {
		return nil, fatal
	}
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s cannot reach coordinator at %s: %w", ws.cfg.Name, ws.cfg.Connect, err)
	}
	ws.cfg.Logf("worker %s: joined %s (heartbeat %.3gs)", ws.cfg.Name, ws.cfg.Connect, sess.heartbeatSec)
	return sess, nil
}

// serve pumps one session: a heartbeat goroutine renews the lease while
// the read loop answers stage-batch, reconfigure, and bye frames.
func (ws *workerState) serve(ctx context.Context, sess *session) error {
	w := sess.w
	defer w.close()
	done := make(chan struct{})
	defer close(done)

	hb := time.Duration(sess.heartbeatSec * float64(time.Second))
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				// Unblock the read loop so the worker notices cancellation.
				w.close()
				return
			case <-tick.C:
				if err := w.send(&Message{Type: MsgHeartbeat}); err != nil {
					w.close()
					return
				}
				ws.ctrlInc("llmpq_dist_heartbeats_sent_total")
			}
		}
	}()

	for {
		msg, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch msg.Type {
		case MsgStageBatch:
			res, alive := ws.evalBatch(msg.StageBatch)
			if !alive {
				return ErrInjectedDeath
			}
			if err := w.send(&Message{Type: MsgStageBatchResult, ID: msg.ID, StageBatchResult: res}); err != nil {
				return err
			}
		case MsgReconfigure:
			if err := msg.Reconfigure.Validate(); err != nil {
				return fmt.Errorf("dist: bad reconfigure payload: %w", err)
			}
			ws.payload = msg.Reconfigure
			ws.cfg.Logf("worker %s: reconfigured to %d stages", ws.cfg.Name, msg.Reconfigure.Plan.NumStages())
			if err := w.send(&Message{Type: MsgReconfigureOK, ID: msg.ID}); err != nil {
				return err
			}
		case MsgBye:
			return errBye
		case MsgHeartbeat, MsgWelcome:
			// Benign; nothing to do.
		default:
			// Ignore unknown frames for forward compatibility.
		}
	}
}

// evalBatch evaluates a batch's tasks in order, honoring the deadline
// after every hold and the injected-death hook. It answers the whole
// batch or none of it: an abort evaluates nothing durably, and
// alive=false means the batch crossed FailAfterCalls, so the worker must
// die without responding.
func (ws *workerState) evalBatch(req *StageBatch) (res *StageBatchResult, alive bool) {
	expired := func() bool {
		return req.DeadlineUnixNano > 0 && time.Now().UnixNano() > req.DeadlineUnixNano
	}
	abort := func() (*StageBatchResult, bool) {
		ws.ctrlInc("llmpq_dist_deadline_aborts_total")
		return &StageBatchResult{Aborted: true}, true
	}
	if expired() {
		return abort()
	}
	if ws.payload == nil {
		return &StageBatchResult{Err: "worker has no plan payload"}, true
	}
	spec, calls := ws.payload.Spec(), ws.calls
	secs := make([]float64, 0, req.tasks())
	for _, stage := range req.Stages {
		for _, batch := range req.Batches {
			if ws.cfg.Hold > 0 {
				time.Sleep(ws.cfg.Hold)
				if expired() {
					// The hold outlived the deadline: report the abort
					// rather than an answer the coordinator no longer wants.
					return abort()
				}
			}
			if calls++; ws.cfg.FailAfterCalls > 0 && calls > ws.cfg.FailAfterCalls {
				return nil, false
			}
			sec, err := rt.StageTime(spec, ws.payload.Plan, ws.cfg.Timer, stage, batch, req.Round, req.Prefill)
			if err != nil {
				return &StageBatchResult{Err: err.Error()}, true
			}
			secs = append(secs, sec)
		}
	}
	ws.calls = calls
	return &StageBatchResult{Seconds: secs}, true
}

func (ws *workerState) ctrlInc(name string) {
	ws.cfg.CtrlObs.Counter(name).Inc()
}
