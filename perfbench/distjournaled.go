package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assigner"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiler"
	rt "repro/internal/runtime"
)

// distJournaled is a closed loop over the real control plane: a
// coordinator and two in-process workers over loopback TCP. One
// operation is one full offline batch job on the cluster-3 plan, with
// the coordinator journaling (fsync per record) to a fresh directory.
// The job's prompt length cycles through a fixed set in the seed's
// order; it changes the simulated stage times but not the number of
// stage calls. Heartbeats are set far beyond a job's length, so no
// lease or heartbeat timer fires inside the timed section.
type distJournaled struct{}

const (
	djJobsPerSecond = 8
	djWorkers       = 2
	djCluster       = 3
)

// djPrompts are the prompt lengths the jobs cycle through; the plan is
// solved at the longest, so every job fits its memory.
var djPrompts = []int{384, 416, 448, 480, 512}

type djJob struct {
	spec  *assigner.Spec
	local rt.Stats // the same plan run in-process: the parity reference
}

type djInstance struct {
	plan *assigner.Plan
	jobs []djJob // in the seed's order
	n    int
	dir  string

	// Traced-pass state.
	sim, ctrl *obs.Registry
	joins     []float64 // ms
	evalSec   map[int64]float64
	records   []float64
	bytes     []float64
}

func (distJournaled) setUp(cfg config) (instance, error) {
	base, err := experiments.SpecFor(djCluster, experiments.DefaultWork)
	if err != nil {
		return nil, err
	}
	base.Parallelism = 1
	res, err := assigner.Optimize(base, nil)
	if err != nil {
		return nil, err
	}
	inst := &djInstance{plan: res.Plan, n: cfg.ops(djJobsPerSecond, len(djPrompts)),
		dir: filepath.Join(cfg.dir, "journal-"+cfg.workload)}
	for _, k := range rand.New(rand.NewSource(cfg.seed)).Perm(len(djPrompts)) {
		spec := *base
		spec.Work.Prompt = djPrompts[k]
		local, err := (&rt.Engine{Spec: &spec, Plan: res.Plan, Timer: assigner.ProfilerTimer{}}).Run()
		if err != nil {
			return nil, err
		}
		inst.jobs = append(inst.jobs, djJob{spec: &spec, local: local})
	}
	return inst, nil
}

func (d *djInstance) warmUp() error {
	for i := range d.jobs {
		if _, err := d.job(i, nil); err != nil {
			return err
		}
	}
	return nil
}

// timedTimer wraps the workers' layer timer to time their evaluations;
// it returns exactly what the wrapped timer returns.
type timedTimer struct {
	inner assigner.LayerTimer
	ns    atomic.Int64
	first atomic.Int64 // unix ns of the first call
}

func (t *timedTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	start := time.Now()
	t.first.CompareAndSwap(0, start.UnixNano())
	v, err := t.inner.Layer(gpu, cfg, w)
	t.ns.Add(int64(time.Since(start)))
	return v, err
}

// djResult is one finished job.
type djResult struct {
	latMS  float64
	tokens int
	simTPS float64
}

// job runs one batch job through the coordinator and its workers and
// checks it: the result deep-equals the in-process run of the same
// plan, and the journal replays and decodes cleanly to a finished run.
func (d *djInstance) job(i int, tr *tracer) (*djResult, error) {
	j := d.jobs[i%len(d.jobs)]
	req := int64(i)
	dir := filepath.Join(d.dir, strconv.Itoa(i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var timer *timedTimer
	var wt assigner.LayerTimer
	if tr != nil {
		timer = &timedTimer{inner: assigner.ProfilerTimer{}}
		wt = timer
	}
	root := tr.begin("dist.Serve", span{}, req, 0)
	start := time.Now()
	errs := make([]error, djWorkers)
	var wg sync.WaitGroup
	for w := 0; w < djWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tr.begin("dist.RunWorker", span{}, req, w+1)
			defer sp.end()
			errs[w] = dist.RunWorker(ctx, dist.WorkerConfig{
				Name: fmt.Sprintf("w%d", w), Connect: ln.Addr().String(), Timer: wt, CtrlObs: d.ctrl,
			})
		}(w)
	}
	res, err := dist.Serve(ctx, dist.Config{
		Listener: ln, Workers: djWorkers, Spec: j.spec, Plan: d.plan,
		Heartbeat: time.Hour, JournalDir: dir, Obs: d.sim, CtrlObs: d.ctrl,
	})
	if err != nil {
		cancel() // workers that never joined would otherwise wait out ctx
	}
	wg.Wait()
	lat := time.Since(start)
	if tr != nil && timer.first.Load() > 0 {
		// Membership is complete once a worker evaluates its first stage.
		joinSec := float64(timer.first.Load()-start.UnixNano()) / 1e9
		tr.record("dist.join", root, req, 0, root.start, root.start+joinSec)
		d.joins = append(d.joins, joinSec*1e3)
		d.evalSec[req] = float64(timer.ns.Load()) / 1e9
	}
	root.end()
	if err != nil {
		return nil, err
	}
	for w, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("worker w%d: %w", w, werr)
		}
	}
	if res.Replanned || !reflect.DeepEqual(res.First, j.local) {
		return nil, fmt.Errorf("%w: distributed stats differ from the in-process run", errCheck)
	}

	path := filepath.Join(dir, dist.JournalFile)
	sp := tr.begin("journal.ReplayFile", span{}, req, 0)
	rep, err := journal.ReplayFile(path)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%w: journal replay: %v", errCheck, err)
	}
	sp = tr.begin("dist.DecodeState", span{}, req, 0)
	st, err := dist.DecodeState(rep.Records)
	sp.end()
	if err != nil || rep.TornBytes != 0 || !st.Done || st.Records != len(rep.Records) {
		return nil, fmt.Errorf("%w: journal does not decode to a finished run (torn %d bytes, err %v)", errCheck, rep.TornBytes, err)
	}
	if tr != nil {
		d.records = append(d.records, float64(len(rep.Records)))
		d.bytes = append(d.bytes, float64(rep.ValidBytes))
		if err := reappend(filepath.Join(dir, "reappend.journal"), rep.Records, tr, req); err != nil {
			return nil, err
		}
	}
	return &djResult{latMS: ms(lat), tokens: res.TotalTokens, simTPS: res.First.Throughput}, nil
}

// reappend times journal.Writer.Append on the job's own records, in the
// same directory the coordinator journaled to.
func reappend(path string, records [][]byte, tr *tracer, req int64) error {
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	for _, rec := range records {
		sp := tr.begin("journal.Writer.Append", span{}, req, 0)
		_, err := w.Append(rec)
		sp.end()
		if err != nil {
			_ = w.Close() // the append error is the one to report
			return err
		}
	}
	return w.Close()
}

func (d *djInstance) measure(tr *tracer) (*pass, error) {
	ps := &pass{}
	if tr != nil {
		d.sim, d.ctrl = obs.NewRegistry(), obs.NewRegistry()
		d.evalSec = map[int64]float64{}
	}
	var lat, simTPS []float64
	start := time.Now()
	for i := 0; i < d.n; i++ {
		ps.attempted++
		r, err := d.job(i, tr)
		if err != nil {
			ps.fail("job %d: %v", i, err)
			continue
		}
		lat = append(lat, r.latMS)
		simTPS = append(simTPS, r.simTPS)
		ps.units += float64(r.tokens)
	}
	ps.wallSec = time.Since(start).Seconds()
	ps.latP50, ps.latP90 = quantile(lat, 0.5), quantile(lat, 0.9)
	ps.simTokS = mean(simTPS)
	return ps, nil
}

func (d *djInstance) layers(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	jobs := float64(len(d.records))
	calls := d.sim.Counter("llmpq_dist_stage_calls_total").Value()
	if jobs == 0 || calls == 0 {
		return out
	}
	perJob := calls / jobs
	out["dist.join_ms"] = quantile(d.joins, 0.5)
	out["dist.stage_calls_per_job"] = perJob
	// The job's self time — its span minus the join child and the
	// workers' evaluation time — is the RPC path: framing, the loopback
	// round trip, decode, and the coordinator's event loop.
	self := selfTimes(spans)
	var eval float64
	var overhead []float64
	for _, s := range spans {
		if s.Name != "dist.Serve" {
			continue
		}
		req, err := strconv.Atoi(s.Args["req"])
		if err != nil {
			continue
		}
		eval += d.evalSec[int64(req)]
		overhead = append(overhead, (self[s.Args["id"]]-d.evalSec[int64(req)])/perJob*1e6)
	}
	out["dist.worker_eval_us_per_call"] = eval / calls * 1e6
	out["dist.rpc_overhead_us_per_call"] = quantile(overhead, 0.5)
	out["dist.wire_bytes_per_call"] = d.ctrl.Counter("llmpq_dist_bytes_sent_total").Value() / calls
	out["dist.frames_per_call"] = d.ctrl.Counter("llmpq_dist_frames_sent_total").Value() / calls
	out["journal.records_per_job"] = mean(d.records)
	out["journal.bytes_per_job"] = mean(d.bytes)
	out["journal.append_us_p50"] = quantile(spanDurations(spans, "journal.Writer.Append"), 0.5) * 1e3
	// The read path: ReplayFile plus DecodeState, per job.
	replay := map[string]float64{}
	for _, s := range spans {
		if s.Name == "journal.ReplayFile" || s.Name == "dist.DecodeState" {
			replay[s.Args["req"]] += s.Dur * 1e3
		}
	}
	var rs []float64
	for _, v := range replay {
		rs = append(rs, v)
	}
	out["journal.replay_ms"] = quantile(rs, 0.5)
	return out
}

func (d *djInstance) close() {
	_ = os.RemoveAll(d.dir) // scratch journals; a leftover directory changes no result
}
