package main

import (
	"fmt"
	"os"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/failover"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/runtime"
)

// runChaos executes the reproducible fault demo behind -chaos-profile /
// -chaos-seed: plan the same small heterogeneous workload as the observed
// demo, derive a fault schedule from the profile and seed, and serve
// through the failover controller (or, for the kv-pressure profile, the
// online simulator's graceful-degradation path). Every line printed and
// every byte of the -metrics-out / -trace-out artifacts is a pure
// function of (profile, seed): the chaos run deliberately skips the
// wall-clock solver metrics (Spec.Obs stays nil) so two invocations with
// the same seed diff clean — the contract scripts/verify.sh's chaos
// smoke enforces. The solve cache keeps that contract: its hit/miss
// counters (flushed by the replan) are deterministic per workload.
func runChaos(profile string, seed int64, metricsOut, traceOut string) error {
	if profile == chaos.ProfileKVPressure {
		return runChaosOnline(profile, seed, metricsOut)
	}
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder()

	spec, err := demoSpec()
	if err != nil {
		return err
	}
	// The initial solve seeds the cache; the failover replan then
	// warm-starts from it (the benefit table survives the device loss,
	// and the restore after a heal hits every combination).
	spec.Cache = assigner.NewSolveCache()
	res, err := assigner.Optimize(spec, nil)
	if err != nil {
		return err
	}

	// Fault-free baseline fixes the token target and the horizon the
	// profile places its faults in.
	baseEng := &runtime.Engine{Spec: spec, Plan: res.Plan, Timer: assigner.ProfilerTimer{}}
	base, err := baseEng.Run()
	if err != nil {
		return err
	}
	sched, err := chaos.New(profile, seed, res.Plan.NumStages(), base.LatencySec)
	if err != nil {
		return err
	}

	ctl := &failover.Controller{Spec: spec, Plan: res.Plan, Timer: assigner.ProfilerTimer{}, Obs: reg, Spans: rec}
	rep, err := ctl.Run(sched)
	if err != nil {
		return err
	}
	fmt.Printf("chaos serve: profile %s seed %d on %s — %d faults\n",
		profile, seed, spec.Cluster.Name, len(sched.Faults))
	fmt.Printf("baseline: %d tokens in %.4f s\n", base.TokensOut, base.LatencySec)
	if rep.Replanned {
		fmt.Printf("device loss: stage %d (%s) at %.4f s, watermark %d tokens/request\n",
			rep.Lost.Stage, rep.LostDevice, rep.Lost.AtSec, rep.Lost.Watermark)
		fmt.Printf("replanned: %d stages on degraded cluster, %d layers migrated (%.0f MB, %.4f s)\n",
			rep.DegradedPlan.NumStages(), rep.MovedLayers, rep.Migration.TotalBytes/1e6, rep.Migration.TransferSec)
	}
	if rep.Restored {
		fmt.Printf("device heal: %s returned; restore halt at %.4f s, watermark %d tokens/request\n",
			rep.LostDevice, rep.RestoreHalt.AtSec, rep.RestoreHalt.Watermark)
		fmt.Printf("restored: %d stages on the full cluster, %d layers migrated back (%.0f MB, %.4f s)\n",
			rep.RestoredPlan.NumStages(), rep.RestoreMovedLayers,
			rep.RestoreMigration.TotalBytes/1e6, rep.RestoreMigration.TransferSec)
	}
	if rep.Quarantined {
		fmt.Printf("flap damping: %s quarantined after repeated loss; run finished degraded\n", rep.LostDevice)
	}
	fmt.Printf("chaos total: %d tokens in %.4f s (lost tasks %d, downtime %.4f s)\n",
		rep.TotalTokens, rep.TotalLatencySec, rep.First.LostTasks, rep.First.DowntimeSec)
	if rep.TotalTokens != base.TokensOut {
		return fmt.Errorf("chaos run lost work: %d tokens vs %d baseline", rep.TotalTokens, base.TokensOut)
	}
	if err := writeMetrics(reg, metricsOut); err != nil {
		return err
	}
	return writeTrace(rec, traceOut)
}

// runChaosOnline drives the online simulator's graceful-degradation path
// under transient KV-allocation failures.
func runChaosOnline(profile string, seed int64, metricsOut string) error {
	reg := obs.NewRegistry()
	gpu, err := hardware.GPUByName("V100")
	if err != nil {
		return err
	}
	cfg, err := model.ByName("opt-13b")
	if err != nil {
		return err
	}
	const duration = 30.0
	sched, err := chaos.New(profile, seed, 1, duration)
	if err != nil {
		return err
	}
	st, err := online.Run(online.Config{
		GPU: gpu, Model: cfg, Bits: 4, Arrival: 2, Duration: duration,
		MaxNew: 32, MaxBatch: 16, Seed: seed, Obs: reg,
		Chaos: sched, ShedDepth: 64,
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos online: profile %s seed %d — %d completed, %d kv failures, %d retries, %d shed, %d rejected\n",
		profile, seed, st.Completed, st.KVFailures, st.KVRetries, st.Shed, st.Rejected)
	return writeMetrics(reg, metricsOut)
}

// writeMetrics dumps the registry as Prometheus text when a path is set.
func writeMetrics(reg *obs.Registry, path string) error {
	if path == "" {
		return nil
	}
	if err := obs.WriteArtifact(path, reg.WriteText); err != nil {
		return fmt.Errorf("write metrics: %w", err)
	}
	fmt.Printf("metrics dump: %s\n", path)
	return nil
}

// writeTrace dumps the span recorder as Chrome trace JSON when a path is
// set, re-parsing the artifact so corruption fails the run.
func writeTrace(rec *obs.SpanRecorder, path string) error {
	if path == "" {
		return nil
	}
	if err := obs.WriteArtifact(path, rec.WriteChromeTrace); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rd, err := os.Open(path)
	if err != nil {
		return err
	}
	spans, perr := obs.ParseChromeTrace(rd)
	if cerr := rd.Close(); perr == nil {
		perr = cerr
	}
	if perr != nil {
		return fmt.Errorf("trace %s does not parse: %w", path, perr)
	}
	fmt.Printf("chrome trace: %s (%d events)\n", path, len(spans))
	return nil
}
