// Package serve is the HTTP serving front door over the online
// continuous-batching engine (DESIGN.md §12): an OpenAI-compatible REST
// gateway that admits concurrent HTTP requests into one scheduler,
// streams tokens per request over SSE, load-sheds with 429 +
// Retry-After when the admission queue sits at the ShedDepth watermark,
// and drains gracefully on shutdown (stop admitting, finish in-flight,
// then close).
//
// Observability follows the two-registry split (DESIGN.md §11): the
// deterministic serving simulation writes llmpq_online_* families to the
// sim registry — byte-diffable across identical request sequences —
// while wall-clock HTTP metrics (llmpq_serve_*) land on the ctrl
// registry and are never diffed.
package serve

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core/retry"
	"repro/internal/obs"
	"repro/internal/online"
)

// Options configures the gateway.
type Options struct {
	// Engine is the online-serving configuration (device, model, weight
	// precision, MaxBatch admission cap, ShedDepth watermark, optional
	// Downshift). Its Obs and Hooks fields are owned by the server and
	// overwritten: metrics go to Sim, lifecycle events drive streams.
	Engine online.Config
	// Sim is the deterministic registry (byte-diffed artifacts). Nil
	// allocates a fresh one; read it back via SimRegistry.
	Sim *obs.Registry
	// Ctrl is the wall-clock registry for HTTP metrics. Nil allocates a
	// fresh one; read it back via CtrlRegistry.
	Ctrl *obs.Registry
	// StepHold pauses the scheduler for this wall duration after every
	// decode step. Zero runs the simulation as fast as the host allows;
	// a positive hold paces token streams and widens the window in which
	// concurrent arrivals join the same continuous batch.
	StepHold time.Duration
	// RetrySeed seeds the deterministic Retry-After derivation for 429
	// responses (core/retry jittered backoff).
	RetrySeed int64
	// Logf, when non-nil, receives control-plane log lines.
	Logf func(format string, args ...any)
}

// eventKind discriminates per-request stream events.
type eventKind int

const (
	evToken eventKind = iota
	evFinish
	evShed
)

// streamEvent is one lifecycle event forwarded from the engine hooks to
// the handler goroutine that owns the request.
type streamEvent struct {
	kind eventKind
	n    int // tokens generated so far (evToken)
}

// Server owns the engine, the scheduler goroutine, and the HTTP surface.
type Server struct {
	opts Options
	cm   *ctrlMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	eng      *online.Engine
	streams  map[int]chan streamEvent
	inflight int
	draining bool
	closed   bool
	aborted  bool
	schedErr error

	schedDone chan struct{}
}

// New builds the server and starts its scheduler goroutine. Callers must
// Drain or Close it to stop the scheduler.
func New(opts Options) (*Server, error) {
	if opts.Sim == nil {
		opts.Sim = obs.NewRegistry()
	}
	if opts.Ctrl == nil {
		opts.Ctrl = obs.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		opts:      opts,
		cm:        newCtrlMetrics(opts.Ctrl),
		streams:   map[int]chan streamEvent{},
		schedDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	cfg := opts.Engine
	cfg.Obs = opts.Sim
	cfg.Hooks = online.Hooks{
		OnToken:  s.onToken,
		OnFinish: s.onFinish,
		OnShed:   s.onShed,
	}
	eng, err := online.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	go s.schedule()
	return s, nil
}

// SimRegistry is the deterministic serving-sim registry.
func (s *Server) SimRegistry() *obs.Registry { return s.opts.Sim }

// CtrlRegistry is the wall-clock HTTP metrics registry.
func (s *Server) CtrlRegistry() *obs.Registry { return s.opts.Ctrl }

// EngineStats snapshots the serving simulation's statistics. Like
// online.Engine.Stats it costs O(requests finished) under the scheduler
// lock, so it is for tests and the drain report, never a request path.
func (s *Server) EngineStats() online.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Stats()
}

// Waiting is the number of admitted-but-not-yet-batched requests — the
// queue depth the ShedDepth watermark is compared against.
func (s *Server) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Waiting()
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Engine hooks: all run with s.mu held (every engine call site holds
// it), forwarding events into the per-request buffered channels. The
// buffers are sized for the whole lifecycle (maxNew tokens + terminal
// event), so hooks never block the scheduler.

func (s *Server) onToken(r *online.Request) {
	if ch := s.streams[r.ID()]; ch != nil {
		ch <- streamEvent{kind: evToken, n: r.Done()}
	}
}

func (s *Server) onFinish(r *online.Request) {
	if ch := s.streams[r.ID()]; ch != nil {
		ch <- streamEvent{kind: evFinish, n: r.Done()}
		close(ch)
		delete(s.streams, r.ID())
	}
}

func (s *Server) onShed(r *online.Request) {
	if ch := s.streams[r.ID()]; ch != nil {
		ch <- streamEvent{kind: evShed}
		close(ch)
		delete(s.streams, r.ID())
	}
}

// schedule is the continuous-batching loop: admit whatever fits, run one
// decode step, repeat. It sleeps on the condition variable while idle
// and exits once the server is closed (after the backlog drains, or
// immediately when aborted).
func (s *Server) schedule() {
	defer close(s.schedDone)
	for {
		s.mu.Lock()
		for !s.closed && !s.eng.Busy() {
			s.cond.Wait()
		}
		if s.closed && (s.aborted || !s.eng.Busy()) {
			s.mu.Unlock()
			return
		}
		ran, err := s.eng.StepOnce()
		if err != nil {
			// The simulation cannot continue (profiler rejected the step
			// shape). Fail every open stream and refuse future work.
			s.schedErr = err
			s.aborted = true
			s.closed = true
			s.draining = true
			s.closeStreamsLocked()
			s.mu.Unlock()
			s.cond.Broadcast()
			s.opts.Logf("serve: scheduler failed: %v", err)
			return
		}
		s.mu.Unlock()
		// Completions may have released drain waiters.
		s.cond.Broadcast()
		if ran && s.opts.StepHold > 0 {
			time.Sleep(s.opts.StepHold)
		}
	}
}

// closeStreamsLocked terminates every open stream (no terminal event was
// delivered; handlers treat the bare close as a scheduler failure).
// Keys are sorted so shutdown is deterministic.
func (s *Server) closeStreamsLocked() {
	ids := make([]int, 0, len(s.streams))
	for id := range s.streams {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		close(s.streams[id])
	}
	clear(s.streams)
}

// Drain executes the graceful shutdown sequence: stop admitting new
// requests (they get 503), let in-flight requests finish, then stop the
// scheduler. It returns early with the context error when ctx expires
// first; the server keeps draining in that case and Drain may be called
// again.
func (s *Server) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stop()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cm.drains.Inc()
		s.opts.Logf("serve: draining (stopped admitting)")
	}
	for s.inflight > 0 || s.eng.Busy() {
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return err
		}
		s.cond.Wait()
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	select {
	case <-s.schedDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	err := s.schedErr
	s.mu.Unlock()
	return err
}

// Close aborts immediately: open streams are failed, the scheduler
// exits without finishing the backlog. Tests and fatal paths use it;
// production shutdown goes through Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.aborted = true
	s.closed = true
	s.closeStreamsLocked()
	s.mu.Unlock()
	s.cond.Broadcast()
	<-s.schedDone
	return nil
}

// submit validates nothing (handlers did); it owns the lock dance around
// engine admission. The returned channel carries the request's lifecycle
// events; a nil channel means the submission was refused, with refusal
// kind and retry-after seconds describing why.
type admission struct {
	req        *online.Request
	ch         chan streamEvent
	refusal    int // HTTP status when refused, 0 when admitted
	retryAfter int // seconds, for 429 refusals
	err        error
}

func (s *Server) submit(promptTok, maxTok int) admission {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return admission{refusal: http.StatusServiceUnavailable}
	}
	req, err := s.eng.Submit(promptTok, maxTok)
	if errors.Is(err, online.ErrShed) {
		return admission{refusal: http.StatusTooManyRequests, retryAfter: s.retryAfterLocked()}
	}
	if err != nil {
		return admission{refusal: http.StatusBadRequest, err: err}
	}
	ch := make(chan streamEvent, maxTok+2)
	s.streams[req.ID()] = ch
	s.inflight++
	return admission{req: req, ch: ch}
}

// release undoes submit's inflight accounting once the handler is done
// with the request, and drops the stream if it is still registered
// (client gone before the engine finished).
func (s *Server) release(req *online.Request) {
	s.mu.Lock()
	delete(s.streams, req.ID())
	s.inflight--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// retryAfterLocked derives the 429 Retry-After hint from the shared
// retry machinery: the deterministic jittered backoff a retrying client
// would be told to take, with the attempt index scaled by how far past
// the watermark the queue is — deeper overload, longer hint.
func (s *Server) retryAfterLocked() int {
	pol := s.opts.Engine.Retry
	if pol.MaxAttempts == 0 {
		pol = retry.Default()
	}
	attempt := s.eng.Waiting() - s.opts.Engine.ShedDepth + 1
	if attempt < 1 {
		attempt = 1
	}
	if attempt > pol.MaxAttempts {
		attempt = pol.MaxAttempts
	}
	sec := int(math.Ceil(pol.DelaySec(s.opts.RetrySeed, attempt)))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// meta snapshots the llmpq response-metadata block for one request. It
// reads only O(1) engine counters, so its cost does not grow with the
// requests served.
func (s *Server) meta(req *online.Request) *Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &Meta{
		Bits:             s.eng.Bits(),
		Downshifts:       s.eng.Downshifts(),
		KVCapacityTokens: s.eng.KVCapacityTok(),
		PeakBatch:        s.eng.PeakBatch(),
		DegradationTier:  s.eng.DegradationTier(),
		Healing:          s.eng.Healing(),
	}
	if req.FinishSec() > 0 {
		m.SimLatencySeconds = req.LatencySec()
	}
	return m
}

// Health snapshots the engine's degradation state for the readiness
// probe and front-door reporting: the precision tier below configured
// bits and whether the upshift ladder is mid-climb.
func (s *Server) Health() (tier int, healing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.DegradationTier(), s.eng.Healing()
}

// Serve accepts connections on ln until ctx is cancelled, then runs the
// graceful-drain sequence: stop admitting (503), finish in-flight
// requests, stop the scheduler, close the listener. drainTimeout bounds
// the drain; zero means wait indefinitely.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx := context.Background()
	if drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, drainTimeout)
		defer cancel()
	}
	derr := s.Drain(dctx)
	serr := hs.Shutdown(dctx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if derr != nil {
		return derr
	}
	return serr
}
