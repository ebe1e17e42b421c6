// Command llmpq-dist executes a strategy file produced by llmpq-algo on
// the distributed pipeline runtime — the paper's launch entry point (§5):
//
//	llmpq-dist -strat-file strategy.json
//
// By default the run is the single-process deterministic cluster
// simulation (DESIGN.md §3): master engine, per-stage workers,
// asynchronous stage-to-stage transfers and KV-cache reservation, with
// OOM detection at model-load time.
//
// With -role the same strategy runs as a real multi-process control
// plane over TCP (DESIGN.md §11): one coordinator owning the
// deterministic event loop plus per-stage worker processes evaluating
// stage times remotely — one batch per worker per round — with
// heartbeat/lease membership, per-round deadlines,
// reconnect-with-backoff, and — on permanent worker loss — an automatic
// replan-and-resume identical to the in-process failover path:
//
//	llmpq-dist -role coordinator -strat-file strategy.json -listen :9380 -workers 2
//	llmpq-dist -role worker -name w0 -connect 127.0.0.1:9380
//	llmpq-dist -role worker -name w1 -connect 127.0.0.1:9380
//
// With -journal-dir the coordinator additionally appends a durable
// CRC-framed journal of every plan/membership/progress transition;
// after a crash (SIGKILL included — see -coord-fail-after and the
// coord-crash chaos profile), restarting with -recover on the same
// address replays the journal, reattaches workers by rejoin token, and
// resumes with artifacts byte-identical to an uninterrupted run
// (DESIGN.md §14).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/core/retry"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/runtime"
)

func main() {
	var (
		role       = flag.String("role", "single", "single | coordinator | worker")
		stratFile  = flag.String("strat-file", "strategy.json", "strategy file from llmpq-algo")
		verbose    = flag.Bool("v", false, "print per-stage utilization (single) or control-plane events (coordinator/worker)")
		gantt      = flag.Bool("gantt", false, "render the per-stage execution timeline (single role)")
		metricsOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump of the run here")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run here")

		// Coordinator role.
		listen         = flag.String("listen", "127.0.0.1:9380", "coordinator bind address")
		workers        = flag.Int("workers", 2, "worker count the coordinator waits for")
		heartbeat      = flag.Duration("heartbeat", 500*time.Millisecond, "worker heartbeat interval")
		lease          = flag.Duration("lease", 2*time.Second, "silence after which a worker is declared lost")
		deadline       = flag.Duration("deadline", 10*time.Second, "deadline for one worker's stage batch of a round; the batch is retried, then the run fails (negative disables)")
		chaosProfile   = flag.String("chaos-profile", "", "inject a seeded fault profile (conn-drop | partition | net-delay | coord-crash)")
		chaosSeed      = flag.Int64("chaos-seed", 1, "seed for -chaos-profile")
		chaosHorizon   = flag.Float64("chaos-horizon", 5.0, "wall-clock horizon in seconds the profile places faults in")
		solveCache     = flag.Bool("solve-cache", true, "memoize solve outcomes (seeded by one solve of the full fleet) so a lease-expiry replan warm-starts; the degraded plan is byte-identical either way")
		replanOut      = flag.String("replan-out", "", "write the post-replan degraded plan JSON here (empty when the run never replanned)")
		journalDir     = flag.String("journal-dir", "", "append a durable CRC-framed journal of plan/membership/progress transitions under this directory")
		recoverRun     = flag.Bool("recover", false, "replay the journal in -journal-dir and resume the crashed run instead of starting fresh")
		coordFailAfter = flag.Int("coord-fail-after", 0, "SIGKILL the coordinator process after it has answered this many engine stage calls (crash-recovery demos; 0 = never)")
		ctrlMetricsOut = flag.String("ctrl-metrics-out", "", "write the wall-clock control-plane metrics dump here (journal/reattach/lease counters)")

		// Heal (both roles): the coordinator opens the rejoin door, the
		// worker flags its hellos as heal-capable rejoins.
		rejoin    = flag.Bool("rejoin", false, "coordinator: re-admit a lost worker that rejoins mid-run and replan capacity back; worker: present the name as a heal-capable rejoin after a restart")
		healDwell = flag.Duration("heal-dwell", 0, "how long a rejoined worker's lease must hold before the capacity-restoring replan fires (0 = the lease)")
		flapTol   = flag.Int("flap-tolerance", 0, "lease losses tolerated per worker; the next one quarantines it instead of healing it (0 = default 2)")

		// Worker role.
		connect   = flag.String("connect", "127.0.0.1:9380", "coordinator address to join")
		name      = flag.String("name", "", "stable worker name (required for -role worker)")
		hold      = flag.Duration("hold", 0, "artificial wall delay per stage evaluation, so per task of a stage batch (paces demos)")
		failAfter = flag.Int("fail-after", 0, "die instead of answering the stage batch that takes the worker past this many evaluations (failover demos; 0 = never)")
	)
	flag.Parse()

	switch *role {
	case "single":
		runSingle(*stratFile, *verbose, *gantt, *metricsOut, *traceOut)
	case "coordinator":
		runCoordinator(coordOpts{
			stratFile: *stratFile, listen: *listen, workers: *workers,
			heartbeat: *heartbeat, lease: *lease, deadline: *deadline,
			chaosProfile: *chaosProfile, chaosSeed: *chaosSeed, chaosHorizon: *chaosHorizon,
			verbose: *verbose, metricsOut: *metricsOut, traceOut: *traceOut,
			solveCache: *solveCache, replanOut: *replanOut,
			journalDir: *journalDir, recover: *recoverRun,
			coordFailAfter: *coordFailAfter, ctrlMetricsOut: *ctrlMetricsOut,
			rejoin: *rejoin, healDwell: *healDwell, flapTolerance: *flapTol,
		})
	case "worker":
		runWorker(*name, *connect, *hold, *failAfter, *rejoin, *verbose)
	default:
		fatalf("unknown -role %q (want single, coordinator, or worker)", *role)
	}
}

// loadStrategy rebuilds the spec and validates the plan against it.
func loadStrategy(path string) (*assigner.Spec, *assigner.Plan) {
	strat, err := core.LoadStrategy(path)
	if err != nil {
		fatalf("%v", err)
	}
	spec, err := core.BuildSpec(strat.Request)
	if err != nil {
		fatalf("rebuild spec: %v", err)
	}
	if err := strat.Plan.Validate(spec); err != nil {
		fatalf("strategy does not match its cluster/model: %v", err)
	}
	return spec, strat.Plan
}

// printSummary emits the shared result header — identical between the
// single-process engine and a clean coordinated run, so outputs diff.
func printSummary(spec *assigner.Spec, st runtime.Stats) {
	fmt.Printf("model        %s on %s\n", spec.Cfg.Name, spec.Cluster.Name)
	fmt.Printf("workload     batch=%d prompt=%d generate=%d\n",
		spec.Work.GlobalBatch, spec.Work.Prompt, spec.Work.Generate)
	fmt.Printf("latency      %.2f s (prefill %.2f s)\n", st.LatencySec, st.PrefillSec)
	fmt.Printf("throughput   %.2f token/s (%d tokens)\n", st.Throughput, st.TokensOut)
}

func runSingle(stratFile string, verbose, gantt bool, metricsOut, traceOut string) {
	spec, plan := loadStrategy(stratFile)
	eng, err := runtime.NewEngine(spec, plan, nil)
	if err != nil {
		fatalf("%v", err)
	}
	var reg *obs.Registry
	var rec *obs.SpanRecorder
	if metricsOut != "" {
		reg = obs.NewRegistry()
		eng.Obs = reg
	}
	if traceOut != "" || gantt {
		rec = obs.NewSpanRecorder()
		eng.Spans = rec
	}
	st, err := eng.Run()
	var oom *runtime.OOMError
	if errors.As(err, &oom) {
		fatalf("out of memory: %v", oom)
	}
	if err != nil {
		fatalf("serving failed: %v", err)
	}
	printSummary(spec, st)
	writeArtifacts(reg, rec, metricsOut, traceOut)
	if verbose {
		for j := range st.StageBusy {
			fmt.Printf("stage %d      busy %.2fs (%.0f%%), reserved %.1f GB\n",
				j, st.StageBusy[j], st.Utilization[j]*100, st.StageMemGB[j])
		}
		fmt.Printf("events       %d\n", st.Events)
	}
	if gantt {
		out, err := runtime.RenderGantt(rec.Spans(), plan.NumStages(), st.LatencySec, 100)
		if err != nil {
			fatalf("gantt: %v", err)
		}
		fmt.Print(out)
	}
}

// coordOpts carries the coordinator role's flag surface.
type coordOpts struct {
	stratFile, listen          string
	workers                    int
	heartbeat, lease, deadline time.Duration
	chaosProfile               string
	chaosSeed                  int64
	chaosHorizon               float64
	verbose                    bool
	metricsOut, traceOut       string
	solveCache                 bool
	replanOut                  string
	journalDir                 string
	recover                    bool
	coordFailAfter             int
	ctrlMetricsOut             string
	rejoin                     bool
	healDwell                  time.Duration
	flapTolerance              int
}

// strategyHash fingerprints the raw strategy file so a recovery cannot
// silently resume under a different strategy.
func strategyHash(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		// loadStrategy already surfaced the real error on the fatal path.
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write(buf) // hash.Hash writes never fail
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

func runCoordinator(o coordOpts) {
	spec, plan := loadStrategy(o.stratFile)
	if o.solveCache {
		// The plan comes from the strategy file, so nothing has been
		// solved in this process yet: one solve of the full fleet seeds
		// the cache, so a replan's survivors and a heal's restore
		// warm-start from it. The seed only warms the cache — the run
		// executes the strategy's plan either way.
		spec.Cache = assigner.NewSolveCache()
		if _, err := assigner.Optimize(spec, nil); err != nil {
			fmt.Fprintf(os.Stderr, "llmpq-dist: solve-cache seed: %v (replans start cold)\n", err)
		}
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatalf("listen: %v", err)
	}
	var reg *obs.Registry
	var rec *obs.SpanRecorder
	if o.metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if o.traceOut != "" {
		rec = obs.NewSpanRecorder()
	}
	ctrl := obs.NewRegistry()
	failAfter := o.coordFailAfter
	if o.chaosProfile != "" {
		sched, err := chaos.New(o.chaosProfile, o.chaosSeed, o.workers, o.chaosHorizon)
		if err != nil {
			fatalf("%v", err)
		}
		nf := sched.NetFaults()
		crashAfter, hasCrash := sched.CoordCrashAfter()
		extra := len(sched.Faults) - len(nf)
		if hasCrash {
			extra--
		}
		if extra > 0 {
			fatalf("profile %s contains faults the distributed runtime cannot inject (want conn-drop, partition, net-delay, coord-crash)", o.chaosProfile)
		}
		if len(nf) > 0 {
			ln = dist.NewFaultListener(ln, sched, reg, ctrl)
		}
		if hasCrash && failAfter == 0 {
			failAfter = crashAfter
		}
		fmt.Printf("chaos        profile %s seed %d (%d faults)\n", o.chaosProfile, o.chaosSeed, len(sched.Faults))
	}
	var die func()
	if failAfter > 0 {
		die = func() {
			// Real abrupt death: no farewells, no flushes, no exit hooks —
			// exactly what the -recover path must tolerate.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		}
	}
	logf := func(string, ...any) {}
	if o.verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "llmpq-dist: "+format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := dist.Serve(ctx, dist.Config{
		Listener: ln, Workers: o.workers, Spec: spec, Plan: plan,
		Heartbeat: o.heartbeat, Lease: o.lease, RoundDeadline: o.deadline,
		JournalDir: o.journalDir, Recover: o.recover,
		Rejoin: o.rejoin, HealDwell: o.healDwell, FlapTolerance: o.flapTolerance,
		StrategyHash:   strategyHash(o.stratFile),
		CoordFailAfter: failAfter, Die: die,
		Obs: reg, CtrlObs: ctrl, Spans: rec, Logf: logf,
	})
	if err != nil {
		fatalf("coordinated serving failed: %v", err)
	}
	if !res.Replanned {
		printSummary(spec, res.First)
	} else {
		fmt.Printf("model        %s on %s\n", spec.Cfg.Name, spec.Cluster.Name)
		fmt.Printf("workload     batch=%d prompt=%d generate=%d\n",
			spec.Work.GlobalBatch, spec.Work.Prompt, spec.Work.Generate)
		fmt.Printf("worker loss  %s (stage %d, %s) at %.4f s, watermark %d tokens/request\n",
			res.LostWorker, res.Lost.Stage, res.LostDevice, res.Lost.AtSec, res.Lost.Watermark)
		fmt.Printf("replanned    %d stages on survivors, %d layers migrated (%.0f MB, %.4f s)\n",
			res.DegradedPlan.NumStages(), res.MovedLayers, res.Migration.TotalBytes/1e6, res.Migration.TransferSec)
		if res.Restored {
			fmt.Printf("worker heal  %s rejoined; restore halt at %.4f s, watermark %d tokens/request\n",
				strings.Join(res.HealedWorkers, ","), res.RestoreHalt.AtSec, res.RestoreHalt.Watermark)
			fmt.Printf("restored     %d stages on the full fleet, %d layers migrated back (%.0f MB, %.4f s)\n",
				res.RestoredPlan.NumStages(), res.RestoreMovedLayers,
				res.RestoreMigration.TotalBytes/1e6, res.RestoreMigration.TransferSec)
		}
		fmt.Printf("total        %d tokens in %.4f s\n", res.TotalTokens, res.TotalLatencySec)
		if o.replanOut != "" {
			// The degraded plan is a pure function of (strategy, lost
			// worker), so this artifact byte-diffs across runs — warm or
			// cold — under a deterministic loss point (-fail-after).
			buf, err := json.MarshalIndent(res.DegradedPlan, "", "  ")
			if err != nil {
				fatalf("encode degraded plan: %v", err)
			}
			if err := os.WriteFile(o.replanOut, append(buf, '\n'), 0o644); err != nil {
				fatalf("write degraded plan: %v", err)
			}
			fmt.Printf("replan plan  %s\n", o.replanOut)
		}
	}
	writeArtifacts(reg, rec, o.metricsOut, o.traceOut)
	if o.ctrlMetricsOut != "" {
		if err := obs.WriteArtifact(o.ctrlMetricsOut, ctrl.WriteText); err != nil {
			fatalf("write ctrl metrics: %v", err)
		}
		// Stderr, not stdout: stdout must stay byte-identical between a
		// recovered run and one that never crashed, and the ctrl dump is
		// wall-clock data by definition.
		fmt.Fprintf(os.Stderr, "llmpq-dist: ctrl metrics %s\n", o.ctrlMetricsOut)
	}
}

func runWorker(name, connect string, hold time.Duration, failAfter int, rejoin, verbose bool) {
	if name == "" {
		fatalf("-role worker requires -name")
	}
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "llmpq-dist: "+format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := dist.RunWorker(ctx, dist.WorkerConfig{
		Name: name, Connect: connect, Hold: hold, FailAfterCalls: failAfter, Rejoin: rejoin,
		// Patient dial budget (~1 min) so workers may be launched before
		// the coordinator binds its port.
		Retry:     retry.Policy{MaxAttempts: 60, BaseDelaySec: 0.1, Factor: 1.5, MaxDelaySec: 2, JitterFrac: 0.2},
		RetrySeed: int64(len(name)) + 1, Logf: logf,
	})
	if err != nil {
		fatalf("worker %s: %v", name, err)
	}
	fmt.Printf("worker %s    done\n", name)
}

// writeArtifacts streams the metrics and trace exports when requested.
func writeArtifacts(reg *obs.Registry, rec *obs.SpanRecorder, metricsOut, traceOut string) {
	if reg != nil {
		if err := obs.WriteArtifact(metricsOut, reg.WriteText); err != nil {
			fatalf("write metrics: %v", err)
		}
		fmt.Printf("metrics      %s\n", metricsOut)
	}
	if traceOut != "" {
		if err := obs.WriteArtifact(traceOut, rec.WriteChromeTrace); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("trace        %s (%d spans, load in chrome://tracing)\n", traceOut, rec.Len())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "llmpq-dist: "+format+"\n", args...)
	os.Exit(1)
}
