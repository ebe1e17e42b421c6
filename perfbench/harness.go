package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// config is what every workload is built from. The seed is the only
// source of the workload's inputs; seconds fixes the operation count.
type config struct {
	workload string
	seed     int64
	seconds  int
	dir      string
}

// ops scales a workload's nominal operation rate by the run length,
// rounded up to a multiple of unit, so a given --seconds always runs the
// same fixed count.
func (c config) ops(perSecond float64, unit int) int {
	n := int(math.Ceil(perSecond * float64(c.seconds)))
	if n < unit {
		n = unit
	}
	return (n + unit - 1) / unit * unit
}

// bench is one named workload: an input set of the benchmark.
type bench interface {
	// setUp builds everything the timed section needs from the seed.
	setUp(cfg config) (instance, error)
}

// instance is one set-up workload, ready to measure once.
type instance interface {
	// warmUp runs untimed work so caches fill and lazy set-up finishes.
	warmUp() error
	// measure runs the fixed operation count; tr is nil when untraced.
	measure(tr *tracer) (*pass, error)
	// layers computes the per-layer metrics of a traced pass from its
	// spans (read back from the Chrome trace) and the counters the
	// layers exported during it.
	layers(spans []obs.Span) map[string]float64
	close()
}

var workloads = map[string]bench{
	"plan-failover":  planFailover{},
	"serve-chat":     serveChat{},
	"online-burst":   onlineBurst{},
	"dist-journaled": distJournaled{},
}

// pass is what one timed section measured.
type pass struct {
	attempted int
	failed    int
	problems  []string
	latP50    float64 // ms
	latP90    float64 // ms
	units     float64 // work units completed (see README.md per workload)
	wallSec   float64
	simTokS   float64 // simulated tokens per simulated second
}

// fail records one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

type result struct {
	out      output
	problems []string
}

// execute runs one workload: set-up (repeated, median reported), an
// untimed warm-up, the timed section with tracing off, and — for a
// traced run — the same again on a fresh instance with tracing on.
func execute(w bench, cfg config, traced bool) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		next, err := w.setUp(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	if err := inst.warmUp(); err != nil {
		inst.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := inst.measure(nil)
	heapMB := liveHeapMB()
	inst.close()
	if err != nil {
		return nil, err
	}
	res := &result{problems: plain.problems}
	res.out = output{
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		m := res.out.Metrics
		m["setup_s"] = metric{quantile(setups, 0.5), "s"}
		m["latency_ms_p50"] = metric{plain.latP50, "ms"}
		m["latency_ms_p90"] = metric{plain.latP90, "ms"}
		m["throughput_per_s"] = metric{plain.units / plain.wallSec, "1/s"}
		m["sim_tokens_per_s"] = metric{plain.simTokS, "tok/s"}
		m["success_ratio"] = metric{1 - float64(plain.failed)/float64(plain.attempted), "ratio"}
		m["heap_live_mb"] = metric{heapMB, "MB"}
		res.out.Correct = plain.failed == 0 && plain.attempted > 0
		return res, nil
	}

	inst, err = w.setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	if err := inst.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tr := newTracer()
	tp, err := inst.measure(tr)
	if err != nil {
		return nil, err
	}
	spans, err := tr.roundTrip(filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)))
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, tp.problems...)
	res.out.Attempted += tp.attempted
	res.out.Failed += tp.failed
	res.out.Correct = res.out.Failed == 0 && res.out.Attempted > 0
	values := inst.layers(spans)
	values["obs.trace_overhead_ratio"] = tp.latP50 / plain.latP50
	for _, pm := range perLayer {
		res.out.Metrics[pm.name] = metric{values[pm.name], pm.unit}
		delete(values, pm.name)
	}
	if len(values) > 0 {
		return nil, fmt.Errorf("per-layer values without a declared metric: %v", values)
	}
	return res, nil
}

// perLayer declares every per-layer metric with its unit, in the order
// of README.md. A workload that does not exercise a layer reports 0.
var perLayer = []struct{ name, unit string }{
	{"assigner.optimize_ms_p50", "ms"},
	{"assigner.combinations_per_solve", "count"},
	{"assigner.dp_cells_per_solve", "count"},
	{"assigner.alloc_mb_per_solve", "MB"},
	{"assigner.cache_hit_ratio", "ratio"},
	{"failover.replan_ms_p50", "ms"},
	{"runtime.run_ms_p50", "ms"},
	{"runtime.events_per_run", "count"},
	{"serve.ttfb_ms_p50", "ms"},
	{"serve.ttft_ms_p50", "ms"},
	{"serve.server_request_ms_p50", "ms"},
	{"serve.request_ms_first_decile", "ms"},
	{"serve.request_ms_last_decile", "ms"},
	{"serve.engine_stats_us_start", "us"},
	{"serve.engine_stats_us_end", "us"},
	{"serve.sse_bytes_per_request", "bytes"},
	{"online.step_batch_mean", "count"},
	{"online.step_us_p50", "us"},
	{"online.step_us_p90", "us"},
	{"online.submit_us_p50", "us"},
	{"online.steps_per_replay", "count"},
	{"online.batch_mean", "count"},
	{"online.kv_occupancy_mean", "ratio"},
	{"online.queue_wait_s_p95", "s"},
	{"online.sim_latency_s_p95", "s"},
	{"online.sim_slo_ratio", "ratio"},
	{"online.downshifts", "count"},
	{"online.upshifts", "count"},
	{"online.shed", "count"},
	{"dist.join_ms", "ms"},
	{"dist.stage_calls_per_job", "count"},
	{"dist.worker_eval_us_per_call", "us"},
	{"dist.rpc_overhead_us_per_call", "us"},
	{"dist.wire_bytes_per_call", "bytes"},
	{"dist.frames_per_call", "count"},
	{"journal.records_per_job", "count"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.append_us_p50", "us"},
	{"journal.replay_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocatedMB is the process's cumulative allocation so far.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// quantile interpolates linearly between order statistics; xs is not
// modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracer records spans from the benchmark's own code around its calls
// into each layer. Every span carries its id, its parent's id and the
// id of the request it belongs to; all methods are no-ops on nil.
type tracer struct {
	rec *obs.SpanRecorder
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{rec: obs.NewSpanRecorder()} }

// span is one open interval; end records it.
type span struct {
	tr     *tracer
	name   string
	id     int64
	parent int64
	req    int64
	tid    int
	start  float64
}

// begin opens a span named "<layer>.<call>" under parent (a zero span
// for a root). req groups the spans of one request or operation; tid
// picks the trace row.
func (t *tracer) begin(name string, parent span, req int64, tid int) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, name: name, id: t.ids.Add(1), parent: parent.id, req: req, tid: tid, start: t.rec.Since()}
}

// end records the span.
func (s span) end() {
	if s.tr == nil {
		return
	}
	s.tr.rec.Record(s.obsSpan(s.tr.rec.Since()))
}

// record adds a span whose bounds, in recorder seconds, were measured
// elsewhere.
func (t *tracer) record(name string, parent span, req int64, tid int, start, end float64) {
	if t == nil {
		return
	}
	s := span{tr: t, name: name, id: t.ids.Add(1), parent: parent.id, req: req, tid: tid, start: start}
	t.rec.Record(s.obsSpan(end))
}

func (s span) obsSpan(end float64) obs.Span {
	layer, _, _ := strings.Cut(s.name, ".")
	return obs.Span{
		Name: s.name, Cat: layer, TID: s.tid, Start: s.start, Dur: end - s.start,
		Args: map[string]string{
			"id":     strconv.FormatInt(s.id, 10),
			"parent": strconv.FormatInt(s.parent, 10),
			"req":    strconv.FormatInt(s.req, 10),
		},
	}
}

// roundTrip writes the spans as a Chrome trace and reads them back, so
// per-layer metrics come from the artifact itself.
func (t *tracer) roundTrip(path string) ([]obs.Span, error) {
	n := t.rec.Len()
	if err := obs.WriteArtifact(path, t.rec.WriteChromeTrace); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := obs.ParseChromeTrace(f)
	if err != nil {
		return nil, err
	}
	if len(spans) != n {
		return nil, fmt.Errorf("trace %s holds %d spans, recorded %d", path, len(spans), n)
	}
	return spans, nil
}

// spanDurations returns the lengths in ms of every span with the name.
func spanDurations(spans []obs.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur*1e3)
		}
	}
	return out
}

// selfTimes maps each span id to its self time in seconds: its length
// minus the part of it that its children cover.
func selfTimes(spans []obs.Span) map[string]float64 {
	children := map[string][][2]float64{}
	for _, s := range spans {
		children[s.Args["parent"]] = append(children[s.Args["parent"]], [2]float64{s.Start, s.End()})
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		out[s.Args["id"]] = s.Dur - covered(children[s.Args["id"]], s.Start, s.End())
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total float64
	cur := lo
	for _, x := range s {
		a, b := math.Max(x[0], cur), math.Min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
