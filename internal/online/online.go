// Package online explores the paper's §7 "Apply to ORCA or vLLM"
// discussion: under ONLINE serving (unpredictable arrivals, paged KV
// memory, continuous batching) the choice of quantization level trades
// kernel speed against the KV memory left for concurrent requests —
// "there is always a trade-off between the speed of quantized operators
// and the amount of available memory."
//
// The simulator is a deliberately small vLLM-alike: requests are admitted
// when paged-KV memory is available, decode in a continuously-batched
// step loop, and release their pages on completion. It runs on a single
// (possibly fused) device and has two arrival sources:
//
//   - Run: the closed-loop trace mode — a seeded Poisson process with
//     ShareGPT-style prompt lengths sweeps weight precision and arrival
//     rate to expose the §7 crossover.
//   - Engine: the open-loop admission mode — an external front end (the
//     HTTP gateway in internal/serve) pushes requests through Submit and
//     drives decode steps through StepOnce, observing per-request
//     lifecycle via Hooks. Simulated time still only advances inside the
//     engine, so a fixed submission sequence replays byte-for-byte no
//     matter how fast the wall clock runs.
package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core/retry"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/workload"
)

// Metric family names exported by the online simulator.
const (
	metricQueueDepth  = "llmpq_online_queue_depth"
	metricKVUsedTok   = "llmpq_online_kv_used_tokens"
	metricKVCapTok    = "llmpq_online_kv_capacity_tokens"
	metricKVOccupancy = "llmpq_online_kv_occupancy"
	metricStepBatch   = "llmpq_online_step_batch"
	metricReqLatency  = "llmpq_online_request_latency_seconds"
	metricAdmitted    = "llmpq_online_admitted_total"
	metricCompleted   = "llmpq_online_completed_total"
	metricRejected    = "llmpq_online_rejected_total"
	// Graceful degradation under chaos (DESIGN.md §10).
	metricKVFailures = "llmpq_online_kv_alloc_failures_total"
	metricKVRetries  = "llmpq_online_kv_retries_total"
	metricShed       = "llmpq_online_shed_total"
	metricDownshifts = "llmpq_online_downshifts_total"
	metricUpshifts   = "llmpq_online_upshifts_total"
	metricBits       = "llmpq_online_bits"
)

// onlineObs pre-resolves the simulator's metric series; nil = no-op.
type onlineObs struct {
	queueDepth *obs.Histogram
	kvUsed     *obs.Gauge
	kvCap      *obs.Gauge
	occupancy  *obs.Histogram
	stepBatch  *obs.Histogram
	latency    *obs.Histogram
	admitted   *obs.Counter
	completed  *obs.Counter
	rejected   *obs.Counter
	kvFailures *obs.Counter
	kvRetries  *obs.Counter
	shedTotal  *obs.Counter
	downshifts *obs.Counter
	upshifts   *obs.Counter
	bitsGauge  *obs.Gauge
}

func newOnlineObs(r *obs.Registry, bits int, kvTokens int) *onlineObs {
	if r == nil {
		return nil
	}
	bl := obs.L("bits", fmt.Sprint(bits))
	o := &onlineObs{
		queueDepth: r.Histogram(metricQueueDepth, obs.LinearBuckets(1, 4, 16), bl),
		kvUsed:     r.Gauge(metricKVUsedTok, bl),
		kvCap:      r.Gauge(metricKVCapTok, bl),
		occupancy:  r.Histogram(metricKVOccupancy, obs.FractionBuckets(), bl),
		stepBatch:  r.Histogram(metricStepBatch, obs.LinearBuckets(1, 4, 16), bl),
		latency:    r.Histogram(metricReqLatency, obs.TimeBuckets(), bl),
		admitted:   r.Counter(metricAdmitted, bl),
		completed:  r.Counter(metricCompleted, bl),
		rejected:   r.Counter(metricRejected, bl),
		kvFailures: r.Counter(metricKVFailures, bl),
		kvRetries:  r.Counter(metricKVRetries, bl),
		shedTotal:  r.Counter(metricShed, bl),
		downshifts: r.Counter(metricDownshifts, bl),
		upshifts:   r.Counter(metricUpshifts, bl),
		bitsGauge:  r.Gauge(metricBits),
	}
	o.kvCap.Set(float64(kvTokens))
	o.bitsGauge.Set(float64(bits))
	return o
}

// step samples the per-decode-step state: batch size, arrived-but-waiting
// queue depth, and paged-KV occupancy.
func (o *onlineObs) step(batch, waiting, usedTok, kvTokens int) {
	if o == nil {
		return
	}
	o.stepBatch.Observe(float64(batch))
	o.queueDepth.Observe(float64(waiting))
	o.kvUsed.Set(float64(usedTok))
	if kvTokens > 0 {
		o.occupancy.Observe(float64(usedTok) / float64(kvTokens))
	}
}

func (o *onlineObs) admit() {
	if o == nil {
		return
	}
	o.admitted.Inc()
}

func (o *onlineObs) finish(latencySec float64) {
	if o == nil {
		return
	}
	o.completed.Inc()
	o.latency.Observe(latencySec)
}

func (o *onlineObs) reject() {
	if o == nil {
		return
	}
	o.rejected.Inc()
}

// kvFail counts one transient KV-allocation failure and, when it was not
// the first attempt, the retry that hit it.
func (o *onlineObs) kvFail(attempt int) {
	if o == nil {
		return
	}
	o.kvFailures.Inc()
	if attempt > 1 {
		o.kvRetries.Inc()
	}
}

// shed counts a request dropped by graceful degradation (retry
// exhaustion or queue-depth load shedding); shed requests also count as
// rejected so downstream dashboards keep a single loss family.
func (o *onlineObs) shed() {
	if o == nil {
		return
	}
	o.shedTotal.Inc()
	o.rejected.Inc()
}

// downshift records a weight-precision drop under memory pressure.
func (o *onlineObs) downshift(bits, kvTokens int) {
	if o == nil {
		return
	}
	o.downshifts.Inc()
	o.bitsGauge.Set(float64(bits))
	o.kvCap.Set(float64(kvTokens))
}

// upshift records a weight-precision recovery step once pressure eases.
func (o *onlineObs) upshift(bits, kvTokens int) {
	if o == nil {
		return
	}
	o.upshifts.Inc()
	o.bitsGauge.Set(float64(bits))
	o.kvCap.Set(float64(kvTokens))
}

// Hooks are the engine's per-request lifecycle callbacks, the admission
// surface an external front end builds on. All hooks run synchronously
// inside Submit/StepOnce on the caller's goroutine and must not block:
// the HTTP gateway forwards events into buffered per-request channels.
// Any hook may be nil.
type Hooks struct {
	// OnAdmit fires when a request wins paged-KV pages and joins the
	// continuous batch (its prefill cost has just been charged).
	OnAdmit func(*Request)
	// OnToken fires after every decoded token; r.Done() is the count
	// generated so far, including this one.
	OnToken func(*Request)
	// OnFinish fires when a request completes its generation budget and
	// releases its pages.
	OnFinish func(*Request)
	// OnShed fires when a request is dropped: load shedding past the
	// watermark, retry exhaustion under KV chaos, or a rejected head
	// request that can never fit the pool.
	OnShed func(*Request)
}

// Config describes one online-serving simulation.
type Config struct {
	GPU      hardware.GPU
	Model    model.Config
	Bits     int     // uniform weight precision
	Arrival  float64 // mean requests per second (Poisson; closed-loop Run only)
	Duration float64 // simulated seconds of arrivals (closed-loop Run only)
	MaxNew   int     // tokens generated per request (open loop: the default/cap)
	MaxBatch int     // admission cap on concurrent requests
	Seed     int64
	// Obs, when non-nil, receives serving metrics (admission queue depth,
	// paged-KV occupancy, per-step batch size, request latency histogram —
	// DESIGN.md §8). Nil keeps the simulation uninstrumented; results are
	// identical either way.
	Obs *obs.Registry

	// Chaos, when non-nil, injects the schedule's KindKVAlloc faults:
	// paged-KV allocations fail with the schedule's probability inside
	// each fault window. Other fault kinds are ignored here (they target
	// the pipeline engine). Draws come from an explicit rng seeded by
	// (Seed, Chaos.Seed), so fault runs replay byte-for-byte.
	Chaos *chaos.Schedule
	// Retry bounds the per-admission retry loop on transient KV failures.
	// The zero value selects retry.Default(). Backoff advances simulated
	// time (the admission stalls the engine), never the wall clock.
	Retry retry.Policy
	// ShedDepth, when positive, load-sheds: arrived-but-waiting requests
	// beyond this depth are dropped (counted as shed and rejected)
	// instead of queueing unboundedly, and open-loop Submit refuses new
	// work while the queue sits at the watermark. 0 disables shedding.
	ShedDepth int
	// Downshift enables the bitwidth fallback under sustained memory
	// pressure: when the KV pool stays >90% occupied with requests
	// waiting, weights requantize one step down the 16→8→4→3 ladder,
	// growing the pool at a one-off requantization stall (§7 trade-off,
	// inverted: spend kernel speed to buy KV memory).
	Downshift bool
	// Upshift enables the inverse recovery path: once pool occupancy has
	// stayed below the 60% low-watermark with nothing waiting for a
	// dwell of upshiftAfter consecutive steps, precision climbs one step
	// back toward the configured Bits (same one-off requantization
	// stall; a step the resident KV no longer fits under is refused).
	// The dwell is twice the downshift window, so the two state machines
	// hysterese rather than oscillate. Requires Downshift.
	Upshift bool
	// Hooks receive per-request lifecycle events (admission, each decoded
	// token, completion, shedding). The zero value observes nothing and
	// changes nothing: hook invocation never alters the simulation.
	Hooks Hooks
}

// Validate checks the configuration for closed-loop (trace) use.
func (c Config) Validate() error {
	if c.Arrival <= 0 || c.Duration <= 0 || c.MaxNew <= 0 {
		return fmt.Errorf("online: arrival/duration/maxnew must be positive")
	}
	return c.validateServing()
}

// ValidateOpen checks the configuration for open-loop (hook-driven)
// admission, where the Poisson trace knobs are unused: Arrival and
// Duration may be zero, but MaxNew must still be positive — it is the
// per-request generation cap Submit enforces.
func (c Config) ValidateOpen() error {
	if c.Arrival < 0 || c.Duration < 0 {
		return fmt.Errorf("online: negative arrival/duration in open-loop config")
	}
	if c.MaxNew <= 0 {
		return fmt.Errorf("online: max-new cap must be positive")
	}
	return c.validateServing()
}

// validateServing checks the knobs shared by both arrival sources.
func (c Config) validateServing() error {
	switch c.Bits {
	case 3, 4, 8, 16:
	default:
		return fmt.Errorf("online: unsupported bitwidth %d", c.Bits)
	}
	if c.MaxBatch <= 0 {
		return fmt.Errorf("online: max batch must be positive")
	}
	if c.ShedDepth < 0 {
		return fmt.Errorf("online: negative shed depth %d", c.ShedDepth)
	}
	if c.Upshift && !c.Downshift {
		return fmt.Errorf("online: upshift without downshift — there is no degradation to recover from")
	}
	if c.Chaos != nil {
		// The online simulator is single-stage; only stage-0 (and
		// stage-free KV) faults make sense.
		if err := c.Chaos.Validate(1); err != nil {
			return err
		}
	}
	if c.Retry.MaxAttempts != 0 {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// retryPolicy resolves the effective retry policy.
func (c Config) retryPolicy() retry.Policy {
	if c.Retry.MaxAttempts == 0 {
		return retry.Default()
	}
	return c.Retry
}

// Stats summarizes a simulation (final for Run, a snapshot for Engine).
type Stats struct {
	Completed     int
	GeneratedTok  int
	Throughput    float64 // generated tokens per second of simulated time
	MeanLatency   float64 // request completion latency (admission wait + run)
	P95Latency    float64
	MeanBatch     float64 // average concurrent batch while serving
	PeakBatch     int     // largest continuous batch any decode step ran
	KVCapacityTok int     // paged-KV capacity in tokens
	// Rejected counts requests dropped unserved: every Shed request plus
	// head-of-line requests that could never fit the pool. Requests still
	// queued or running at the snapshot are not counted.
	Rejected int
	// Graceful-degradation accounting (zero without chaos/shedding).
	Shed       int // requests dropped by retry exhaustion or load shedding
	KVFailures int // transient KV-allocation failures observed
	KVRetries  int // retries spent recovering from them
	Downshifts int // bitwidth drops under sustained memory pressure
	Upshifts   int // bitwidth recovery steps once pressure eased
	FinalBits  int // weight precision at simulation end
	FinalKVTok int // KV capacity at simulation end (grows on downshift)
}

// Request is one unit of admitted work. Fields are engine-owned; hook
// consumers read them through the accessors and must not retain the
// pointer past OnFinish/OnShed.
type Request struct {
	id     int
	arrive float64
	prompt int
	maxNew int
	done   int // tokens generated so far
	start  float64
	finish float64
	shed   bool
}

// ID is the engine-assigned monotonic submission index.
func (r *Request) ID() int { return r.id }

// PromptTokens is the prompt length charged against the KV pool.
func (r *Request) PromptTokens() int { return r.prompt }

// MaxNew is this request's generation budget.
func (r *Request) MaxNew() int { return r.maxNew }

// Done is the number of tokens generated so far.
func (r *Request) Done() int { return r.done }

// ArriveSec is the simulated arrival time.
func (r *Request) ArriveSec() float64 { return r.arrive }

// StartSec is the simulated admission time (0 until admitted).
func (r *Request) StartSec() float64 { return r.start }

// FinishSec is the simulated completion time (negative when dropped,
// 0 while in flight).
func (r *Request) FinishSec() float64 { return r.finish }

// Shed reports whether the request was dropped instead of served.
func (r *Request) Shed() bool { return r.shed || r.finish < 0 }

// LatencySec is the simulated admission-wait + serve latency (valid
// after OnFinish).
func (r *Request) LatencySec() float64 { return r.finish - r.arrive }

// ErrShed is returned by Submit when the admission queue already sits at
// the ShedDepth watermark: the front door should answer 429 and tell the
// client when to retry.
var ErrShed = errors.New("online: admission queue at the shed watermark")

// Engine is the continuous-batching core shared by the closed-loop trace
// (Run) and the open-loop admission surface (Submit/StepOnce). It is not
// concurrency-safe: the caller serializes access (the HTTP gateway holds
// one scheduler lock around every engine call).
type Engine struct {
	cfg    Config
	policy retry.Policy

	bits     int
	weights  float64
	kvTokens int
	poolFor  func(bits int) (weights float64, kvTokens int)

	oo      *onlineObs
	kvChaos bool
	kvRng   *rand.Rand

	queue     []*Request
	qi        int
	running   []*Request
	finished  []*Request
	batchSum  float64 // sum of every decode step's batch size; Stats divides by steps
	usedTok   int
	now       float64
	hot       int
	cool      int // consecutive low-occupancy steps toward an upshift
	floorBits int // deepest precision reached (healing indicator)
	steps     int
	nextID    int
	st        Stats
}

// NewEngine builds an open-loop engine: requests are pushed through
// Submit and decode steps are driven through StepOnce. The configuration
// is checked with ValidateOpen (the Poisson trace knobs are unused).
func NewEngine(c Config) (*Engine, error) {
	if err := c.ValidateOpen(); err != nil {
		return nil, err
	}
	return newEngine(c)
}

// newEngine computes the memory split and shared state; callers have
// already validated the configuration for their arrival source.
func newEngine(c Config) (*Engine, error) {
	// Memory budget: weights at the current precision + working set; the
	// remainder is the paged KV pool (vLLM's core resource). Recomputed on
	// bitwidth downshift, where shrinking weights grows the pool.
	perTok := c.Model.KVBytesPerLayer(1, 1, profiler.KVBits) * float64(c.Model.Layers)
	poolFor := func(bits int) (weights float64, kvTokens int) {
		for i := 0; i < c.Model.Layers; i++ {
			weights += c.Model.LayerWeightBytes(bits)
		}
		weights += c.Model.EmbedBytes() + c.Model.LMHeadBytes()
		work := 0.08 * c.GPU.MemoryBytes() // activations + allocator slack
		return weights, int((c.GPU.MemoryBytes() - weights - work) / perTok)
	}
	e := &Engine{cfg: c, policy: c.retryPolicy(), bits: c.Bits, floorBits: c.Bits, poolFor: poolFor}
	e.weights, e.kvTokens = poolFor(e.bits)
	if e.kvTokens <= 0 {
		return nil, fmt.Errorf("online: %s at %d-bit leaves no KV memory on %s", c.Model.Name, c.Bits, c.GPU.Name)
	}
	e.oo = newOnlineObs(c.Obs, c.Bits, e.kvTokens)
	// Chaos: transient KV-allocation failures, retried with deterministic
	// jittered backoff that stalls simulated time.
	e.kvChaos = c.Chaos.HasKVFaults()
	if e.kvChaos {
		e.kvRng = rand.New(rand.NewSource(c.Seed ^ c.Chaos.Seed ^ 0x6b76616c6c6f63)) // "kvalloc"
	}
	e.st.KVCapacityTok = e.kvTokens
	return e, nil
}

// Submit pushes one request into the admission queue at the current
// simulated time — the open-loop arrival hook. It validates the request
// shape (front doors map these errors to 4xx), applies the ShedDepth
// watermark (ErrShed maps to 429), and returns the queued request. The
// request is admitted into the batch by a later StepOnce when paged-KV
// pages and a batch slot are available.
func (e *Engine) Submit(prompt, maxNew int) (*Request, error) {
	if prompt <= 0 {
		return nil, fmt.Errorf("online: prompt tokens must be positive, got %d", prompt)
	}
	if maxNew <= 0 {
		return nil, fmt.Errorf("online: max new tokens must be positive, got %d", maxNew)
	}
	if maxNew > e.cfg.MaxNew {
		return nil, fmt.Errorf("online: max new tokens %d above the configured cap %d", maxNew, e.cfg.MaxNew)
	}
	if limit := e.cfg.Model.MaxPosEmb - 1; prompt+maxNew > limit {
		return nil, fmt.Errorf("online: prompt %d + max new %d tokens exceed the %s context window (%d)",
			prompt, maxNew, e.cfg.Model.Name, limit)
	}
	if e.cfg.ShedDepth > 0 && e.waitingNow() >= e.cfg.ShedDepth {
		// Record the refusal on the same shed/reject families the
		// closed-loop watermark uses, so goodput accounting is one story.
		r := &Request{id: e.nextID, arrive: e.now, prompt: prompt, maxNew: maxNew, shed: true, finish: -1}
		e.nextID++
		e.queue = append(e.queue, r)
		e.st.Shed++
		e.oo.shed()
		if e.cfg.Hooks.OnShed != nil {
			e.cfg.Hooks.OnShed(r)
		}
		return r, ErrShed
	}
	r := &Request{id: e.nextID, arrive: e.now, prompt: prompt, maxNew: maxNew}
	e.nextID++
	e.queue = append(e.queue, r)
	return r, nil
}

// Busy reports whether any request is running or waiting for admission.
func (e *Engine) Busy() bool {
	if len(e.running) > 0 {
		return true
	}
	for i := e.qi; i < len(e.queue); i++ {
		if !e.queue[i].shed {
			return true
		}
	}
	return false
}

// Waiting counts arrived-but-unadmitted (and unshed) requests.
func (e *Engine) Waiting() int { return e.waitingNow() }

// Now is the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Bits is the current weight precision (changes under Downshift).
func (e *Engine) Bits() int { return e.bits }

// KVCapacityTok is the current paged-KV pool size in tokens.
func (e *Engine) KVCapacityTok() int { return e.kvTokens }

// Downshifts counts the precision drops so far (Stats().Downshifts in
// O(1)).
func (e *Engine) Downshifts() int { return e.st.Downshifts }

// PeakBatch is the largest batch any decode step has run so far
// (Stats().PeakBatch in O(1)).
func (e *Engine) PeakBatch() int { return e.st.PeakBatch }

// StepOnce admits whatever fits and runs one continuous-batching decode
// step, firing hooks along the way. It reports whether a decode step ran
// — false means the engine is idle (nothing running and nothing
// admissible; a head request that can never fit the pool has been
// rejected so the queue cannot wedge).
func (e *Engine) StepOnce() (bool, error) {
	if len(e.running) == 0 {
		e.shedExcess()
		e.admit()
		if len(e.running) == 0 {
			for e.qi < len(e.queue) && e.queue[e.qi].shed {
				e.qi++
			}
			if e.qi < len(e.queue) && e.queue[e.qi].arrive <= e.now {
				// KV pool cannot fit even one request: reject it.
				e.rejectHead(e.queue[e.qi])
				e.qi++
			}
			return false, nil
		}
	}
	if err := e.step(); err != nil {
		return false, err
	}
	return true, nil
}

// rejectHead drops a head-of-line request that can never be admitted.
func (e *Engine) rejectHead(r *Request) {
	r.finish = -1
	e.oo.reject()
	if e.cfg.Hooks.OnShed != nil {
		e.cfg.Hooks.OnShed(r)
	}
}

// kvNeed is the paged-KV reservation a request holds while running.
func (e *Engine) kvNeed(r *Request) int { return r.prompt + r.maxNew }

// kvAlloc reserves a request's pages, riding out transient chaos
// failures with bounded backoff (which stalls simulated time). False
// means the retries were exhausted and the request must be shed.
func (e *Engine) kvAlloc(r *Request, idx int) bool {
	if !e.kvChaos {
		return true
	}
	err := e.policy.Do(e.cfg.Seed+int64(idx), func(attempt int) error {
		p := e.cfg.Chaos.KVFailProb(e.now)
		if p > 0 && e.kvRng.Float64() < p {
			e.st.KVFailures++
			e.oo.kvFail(attempt)
			return fmt.Errorf("online: transient KV allocation failure")
		}
		if attempt > 1 {
			e.st.KVRetries++
		}
		return nil
	}, func(delaySec float64) { e.now += delaySec })
	return err == nil
}

func (e *Engine) shedReq(r *Request) {
	r.shed = true
	r.finish = -1
	e.st.Shed++
	e.oo.shed()
	if e.cfg.Hooks.OnShed != nil {
		e.cfg.Hooks.OnShed(r)
	}
}

// shedExcess drops arrived-but-waiting requests beyond the watermark
// (newest first go, FIFO order for the survivors).
func (e *Engine) shedExcess() {
	if e.cfg.ShedDepth <= 0 {
		return
	}
	waiting := 0
	for k := e.qi; k < len(e.queue) && e.queue[k].arrive <= e.now; k++ {
		if e.queue[k].shed {
			continue
		}
		waiting++
		if waiting > e.cfg.ShedDepth {
			e.shedReq(e.queue[k])
		}
	}
}

// admit pulls waiting requests into the continuous batch while KV pages
// and batch slots last, charging prefill on admission.
func (e *Engine) admit() {
	for e.qi < len(e.queue) && len(e.running) < e.cfg.MaxBatch {
		r := e.queue[e.qi]
		if r.shed {
			e.qi++
			continue
		}
		if r.arrive > e.now {
			break
		}
		if e.usedTok+e.kvNeed(r) > e.kvTokens {
			break // head-of-line blocking on KV pages
		}
		if !e.kvAlloc(r, e.qi) {
			// Retries exhausted under memory-pressure chaos: shed
			// rather than block the admission queue forever.
			e.shedReq(r)
			e.qi++
			continue
		}
		e.usedTok += e.kvNeed(r)
		e.oo.admit()
		r.start = e.now
		// Prefill cost charged on admission.
		pre, _ := profiler.LayerTime(e.cfg.GPU, e.cfg.Model, profiler.Workload{
			Batch: 1, Prompt: r.prompt, Prefill: true, Bits: e.bits,
		})
		e.now += pre * float64(e.cfg.Model.Layers)
		e.running = append(e.running, r)
		if e.cfg.Hooks.OnAdmit != nil {
			e.cfg.Hooks.OnAdmit(r)
		}
		e.qi++
	}
}

// waitingNow counts arrived-but-unadmitted (and unshed) requests.
func (e *Engine) waitingNow() int {
	waiting := 0
	for k := e.qi; k < len(e.queue) && e.queue[k].arrive <= e.now; k++ {
		if !e.queue[k].shed {
			waiting++
		}
	}
	return waiting
}

// Sustained-pressure window before a precision downshift fires.
const downshiftAfter = 25

// Sustained-calm window before a precision upshift fires: twice the
// downshift window, so recovery needs strictly more evidence than
// degradation and the two never oscillate on a borderline load.
const upshiftAfter = 2 * downshiftAfter

// step runs one continuous-batching decode step: every running request
// produces one token; completions release pages; sustained KV pressure
// may downshift the precision; then the queue is re-shed and re-admitted.
func (e *Engine) step() error {
	b := len(e.running)
	e.batchSum += float64(b)
	e.steps++
	if b > e.st.PeakBatch {
		e.st.PeakBatch = b
	}
	if e.oo != nil {
		e.oo.step(b, e.waitingNow(), e.usedTok, e.kvTokens)
	}
	ctx := 0
	for _, r := range e.running {
		ctx += r.prompt + r.done
	}
	stepW := profiler.Workload{Batch: b, Prompt: 512, Context: ctx / b, Bits: e.bits}
	lt, err := profiler.LayerTime(e.cfg.GPU, e.cfg.Model, stepW)
	if err != nil {
		return err
	}
	e.now += lt * float64(e.cfg.Model.Layers)
	keep := e.running[:0]
	for _, r := range e.running {
		r.done++
		if e.cfg.Hooks.OnToken != nil {
			e.cfg.Hooks.OnToken(r)
		}
		if r.done >= r.maxNew {
			r.finish = e.now
			e.usedTok -= e.kvNeed(r)
			e.oo.finish(r.finish - r.arrive)
			e.finished = append(e.finished, r)
			if e.cfg.Hooks.OnFinish != nil {
				e.cfg.Hooks.OnFinish(r)
			}
		} else {
			keep = append(keep, r)
		}
	}
	e.running = keep
	// Graceful degradation: sustained high KV occupancy with requests
	// waiting triggers one step down the precision ladder — smaller
	// weights, bigger pool, slower kernels (§7 trade-off inverted).
	if e.cfg.Downshift && e.bits > 3 {
		if e.usedTok*10 > e.kvTokens*9 && e.waitingNow() > 0 {
			e.hot++
		} else {
			e.hot = 0
		}
		if e.hot >= downshiftAfter {
			old := e.weights
			e.bits = downshiftStep(e.bits)
			e.st.Downshifts++
			e.weights, e.kvTokens = e.poolFor(e.bits)
			// Requantization stall: stream the old weights out and the
			// requantized copy back through HBM.
			e.now += (old + e.weights) / (e.cfg.GPU.BandwidthGBs * 1e9)
			e.oo.downshift(e.bits, e.kvTokens)
			e.hot = 0
			// A fresh drop resets recovery evidence and deepens the floor.
			e.cool = 0
			if e.bits < e.floorBits {
				e.floorBits = e.bits
			}
		}
	}
	// The inverse path: sustained calm — pool comfortably under the low
	// watermark, nobody waiting — earns one step back up the ladder. The
	// pool-shrink guard refuses a step the resident KV no longer fits
	// under; evidence resets either way, so a refused step is re-earned
	// only after another full dwell (by then completions may have freed
	// the pool).
	if e.cfg.Upshift && e.bits < e.cfg.Bits {
		if e.usedTok*10 < e.kvTokens*6 && e.waitingNow() == 0 {
			e.cool++
		} else {
			e.cool = 0
		}
		if e.cool >= upshiftAfter {
			next := upshiftStep(e.bits)
			if w, kv := e.poolFor(next); kv >= e.usedTok && kv > 0 {
				old := e.weights
				e.bits = next
				e.st.Upshifts++
				e.weights, e.kvTokens = w, kv
				// Same requantization stall as the downshift: the weight
				// copy streams through HBM in both directions.
				e.now += (old + e.weights) / (e.cfg.GPU.BandwidthGBs * 1e9)
				e.oo.upshift(e.bits, e.kvTokens)
			}
			e.cool = 0
		}
	}
	e.shedExcess()
	e.admit()
	return nil
}

// Stats snapshots the engine's statistics. Derived aggregates
// (throughput, latency percentiles, mean batch) cover the work completed
// so far; in-flight requests are excluded until they finish. Its cost
// grows with history: it scans every submitted request and copies and
// sorts every finished one's latency, O(requests finished) allocation.
// It is for tests and the end-of-run report; per-request paths read the
// O(1) accessors (Bits, KVCapacityTok, Downshifts, PeakBatch) instead.
func (e *Engine) Stats() Stats {
	st := e.st
	for _, r := range e.queue {
		if r.finish < 0 {
			st.Rejected++
		}
	}
	var latencies []float64
	for _, r := range e.finished {
		st.Completed++
		st.GeneratedTok += r.maxNew
		latencies = append(latencies, r.finish-r.arrive)
	}
	if e.now > 0 {
		st.Throughput = float64(st.GeneratedTok) / e.now
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		st.MeanLatency = sum / float64(len(latencies))
		st.P95Latency = latencies[int(math.Min(float64(len(latencies)-1), 0.95*float64(len(latencies))))]
	}
	if e.steps > 0 {
		st.MeanBatch = e.batchSum / float64(e.steps)
	}
	st.FinalBits = e.bits
	st.FinalKVTok = e.kvTokens
	return st
}

// Run simulates the configured closed-loop workload: a seeded Poisson
// arrival trace pushed through StepOnce, the same step the open-loop
// admission surface drives.
func Run(c Config) (Stats, error) {
	if err := c.Validate(); err != nil {
		return Stats{}, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	e, err := newEngine(c)
	if err != nil {
		return Stats{}, err
	}

	// Arrivals.
	t := 0.0
	for t < c.Duration {
		t += rng.ExpFloat64() / c.Arrival
		p := workload.ShareGPTLengths(1, c.Model.MaxPosEmb-c.MaxNew-1, rng.Int63())[0]
		e.queue = append(e.queue, &Request{id: e.nextID, arrive: t, prompt: p, maxNew: c.MaxNew})
		e.nextID++
	}

	const maxSteps = 5_000_000
	for {
		// Jump to the next arrival when idle.
		if len(e.running) == 0 {
			for e.qi < len(e.queue) && e.queue[e.qi].shed {
				e.qi++
			}
			if e.qi >= len(e.queue) {
				break
			}
			if e.queue[e.qi].arrive > e.now {
				e.now = e.queue[e.qi].arrive
			}
		}
		if _, err := e.StepOnce(); err != nil {
			return Stats{}, err
		}
		if e.steps > maxSteps {
			return Stats{}, fmt.Errorf("online: runaway simulation after %d steps", e.steps)
		}
	}

	st := e.Stats()
	if st.Completed == 0 {
		return Stats{}, fmt.Errorf("online: nothing completed (arrival %.2f/s, kv %d tok)", c.Arrival, e.kvTokens)
	}
	return st, nil
}

// downshiftStep is the precision fallback ladder under memory pressure:
// 16→8→4→3, with 3 bits as the floor (the lowest precision the paper's
// quantizer supports).
func downshiftStep(bits int) int {
	switch bits {
	case 16:
		return 8
	case 8:
		return 4
	default:
		return 3
	}
}

// upshiftStep is the same ladder climbed back up: 3→4→8→16. Stepping
// from any point below the configured precision never overshoots it,
// because the configured precision sits on the same ladder.
func upshiftStep(bits int) int {
	switch bits {
	case 3:
		return 4
	case 4:
		return 8
	default:
		return 16
	}
}

// DegradationTier reports how many precision steps below the configured
// bitwidth the engine currently serves at (0 = full precision). Front
// doors surface it in health probes.
func (e *Engine) DegradationTier() int {
	tier := 0
	for b := e.cfg.Bits; b > e.bits; b = downshiftStep(b) {
		tier++
	}
	return tier
}

// Healing reports whether the engine has climbed at least one step back
// from its deepest downshift but has not yet reached full precision.
func (e *Engine) Healing() bool {
	return e.bits < e.cfg.Bits && e.bits > e.floorBits
}

// SweepPoint is one (bits, arrival) measurement.
type SweepPoint struct {
	Bits    int
	Arrival float64
	Stats   Stats
}

// Sweep runs the precision × load grid of the §7 trade-off experiment.
func Sweep(gpu hardware.GPU, cfg model.Config, bits []int, arrivals []float64, maxNew int, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, b := range bits {
		for _, a := range arrivals {
			st, err := Run(Config{
				GPU: gpu, Model: cfg, Bits: b, Arrival: a,
				Duration: 60, MaxNew: maxNew, MaxBatch: 64, Seed: seed,
			})
			if err != nil {
				// A precision that leaves no KV memory simply has no
				// point at this load.
				continue
			}
			out = append(out, SweepPoint{Bits: b, Arrival: a, Stats: st})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("online: empty sweep")
	}
	return out, nil
}
