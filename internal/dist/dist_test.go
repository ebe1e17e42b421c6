package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assigner"
	"repro/internal/chaos"
	"repro/internal/core/retry"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiler"
	rt "repro/internal/runtime"
)

var distModel = model.Config{
	Name: "dist-test", Family: model.OPT, Hidden: 2048, FFN: 8192,
	Layers: 8, Heads: 16, VocabSize: 50272, MaxPosEmb: 2048, TiedEmbed: true,
}

func distGPU(name string, memGB float64) hardware.GPU {
	return hardware.GPU{
		Name: name, MemoryGB: memGB, FP16TFLOPS: 50, BandwidthGBs: 600,
		ComputeEff:       map[int]float64{4: 0.5, 8: 0.8, 16: 1.0},
		MemEff:           map[int]float64{4: 0.78, 8: 0.91, 16: 1.0},
		LaunchOverheadUS: 10,
	}
}

// distSpec builds a two-device heterogeneous toy cluster; 3 GB per
// device keeps a single survivor feasible after failover.
func distSpec(t testing.TB) *assigner.Spec {
	t.Helper()
	full := indicator.Synthetic(distModel, []int{4, 8, 16}, 7)
	omega := indicator.Omega{Bits: []int{4, 8, 16}}
	for l := 0; l < full.Layers(); l++ {
		row := make([]float64, 3)
		for i, b := range []int{4, 8, 16} {
			v, _ := full.At(l, b)
			row[i] = v
		}
		omega.Values = append(omega.Values, row)
	}
	return &assigner.Spec{
		Cfg: distModel,
		Cluster: hardware.Cluster{
			Name: "dist-toy", InterNode: hardware.Eth800Gbps,
			Devices: []hardware.Device{
				{ID: 0, GPU: distGPU("gpuA", 3.0), Node: 0},
				{ID: 1, GPU: distGPU("gpuB", 3.0), Node: 1},
			},
		},
		Work:   assigner.Workload{GlobalBatch: 8, Prompt: 128, Generate: 8},
		Bits:   []int{4, 8, 16},
		Omega:  omega,
		Theta:  0.01,
		Method: assigner.MethodDP,
	}
}

// distSpec3 extends the toy cluster to three devices so two workers
// share them unevenly: the round-robin assignment gives the first
// worker two stages — the multi-device loss scenario.
func distSpec3(t testing.TB) *assigner.Spec {
	t.Helper()
	s := distSpec(t)
	s.Cluster.Name = "dist-toy-3"
	s.Cluster.Devices = append(s.Cluster.Devices,
		hardware.Device{ID: 2, GPU: distGPU("gpuC", 3.0), Node: 2})
	return s
}

func distPlan(t testing.TB, s *assigner.Spec) *assigner.Plan {
	t.Helper()
	res, err := assigner.Optimize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// startWorkers launches n in-process workers against addr and returns a
// join function collecting their exit errors.
func startWorkers(ctx context.Context, n int, addr string, mut func(i int, cfg *WorkerConfig)) func() []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	names := []string{"worker-a", "worker-b", "worker-c"}
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{Name: names[i], Connect: addr, RetrySeed: int64(100 + i)}
		if mut != nil {
			mut(i, &cfg)
		}
		wg.Add(1)
		go func(i int, cfg WorkerConfig) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, cfg)
		}(i, cfg)
	}
	return func() []error { wg.Wait(); return errs }
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte(`{"type":"heartbeat"}`)); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil || string(got) != `{"type":"heartbeat"}` {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if err := writeFrame(&buf, nil); err == nil {
		t.Error("empty frame must be rejected")
	}
	if err := writeFrame(&buf, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Error("oversize frame must be rejected")
	}
	// A hostile length prefix must fail without allocating.
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Error("oversize length prefix must be rejected")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame must be rejected")
	}
}

func TestPlanPayloadSpecParity(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	pp := NewPlanPayload(s, p)
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage < p.NumStages(); stage++ {
		want, err := rt.StageTime(s, p, nil, stage, p.PrefillMB, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.StageTime(pp.Spec(), pp.Plan, nil, stage, p.PrefillMB, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("stage %d: payload spec %.17g, full spec %.17g", stage, got, want)
		}
	}
}

// TestCleanRunParity: a loopback coordinator with two worker goroutines
// produces stats deeply equal to the single-process engine — the
// bit-identical invariant the control plane is built on.
func TestCleanRunParity(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	local, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	join := startWorkers(ctx, 2, ln.Addr().String(), nil)
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 100 * time.Millisecond, Lease: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("clean run must not replan")
	}
	if !reflect.DeepEqual(res.First, local) {
		t.Errorf("distributed stats diverged:\nremote: %+v\nlocal:  %+v", res.First, local)
	}
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
}

// TestWorkerLossFailover: a worker that dies mid-decode expires its
// lease, the coordinator replans onto the survivor, and watermark
// resume conserves every token against the clean run.
func TestWorkerLossFailover(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStages() < 2 {
		t.Fatalf("need a 2-stage plan, got %d", p.NumStages())
	}
	// worker-b (second in name order) owns stage 1; kill it after its
	// prefill calls plus one decode round so the loss lands mid-decode.
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	reg := obs.NewRegistry()
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := listen(t)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		if i == 1 {
			cfg.FailAfterCalls = kp + kd
		}
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		Obs: reg, CtrlObs: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatal("expected a replan after the worker death")
	}
	if res.LostWorker != "worker-b" {
		t.Errorf("lost worker %q, want worker-b", res.LostWorker)
	}
	if !res.Lost.PrefillDone || res.Lost.Watermark < 1 {
		t.Errorf("loss should land mid-decode with a positive watermark: %+v", res.Lost)
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("token conservation violated: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	var sim bytes.Buffer
	if err := reg.WriteText(&sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sim.String(), "llmpq_failover_replans_total 1") {
		t.Errorf("sim metrics missing replan counter:\n%s", sim.String())
	}
	werrs := join()
	if !errors.Is(werrs[1], ErrInjectedDeath) {
		t.Errorf("worker-b should report injected death, got %v", werrs[1])
	}
	if werrs[0] != nil {
		t.Errorf("survivor exit: %v", werrs[0])
	}
}

// TestMultiStageWorkerLossSingleReplan: with 3 stages round-robined
// over 2 workers, worker-a serves stages 0 and 2. When it dies, BOTH of
// its devices must be declared lost in one replan (DESIGN.md §11) — the
// survivor takes the whole pipeline and token conservation still holds.
func TestMultiStageWorkerLossSingleReplan(t *testing.T) {
	s := distSpec3(t)
	p := distPlan(t, s)
	if p.NumStages() != 3 {
		t.Fatalf("need a 3-stage plan for two-stage ownership, got %d", p.NumStages())
	}
	clean, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// worker-a owns stages 0 and 2, so it sees two calls per pipeline
	// step; let it survive prefill plus two decode rounds, then die.
	kp := (s.Work.GlobalBatch + p.PrefillMB - 1) / p.PrefillMB
	kd := (s.Work.GlobalBatch + p.DecodeMB - 1) / p.DecodeMB
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := listen(t)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		if i == 0 {
			cfg.FailAfterCalls = 2 * (kp + 2*kd)
		}
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 400 * time.Millisecond,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatal("expected a replan after the worker death")
	}
	if res.LostWorker != "worker-a" {
		t.Errorf("lost worker %q, want worker-a", res.LostWorker)
	}
	if len(res.LostDevices) != 2 {
		t.Fatalf("lost devices %v, want both of worker-a's", res.LostDevices)
	}
	if res.LostDevices[0] != res.LostDevice {
		t.Errorf("LostDevice %q should lead LostDevices %v", res.LostDevice, res.LostDevices)
	}
	if got := res.DegradedPlan.NumStages(); got != 1 {
		t.Errorf("degraded plan has %d stages, want 1 (single survivor)", got)
	}
	if res.TotalTokens != clean.TokensOut {
		t.Errorf("token conservation violated: %d vs clean %d", res.TotalTokens, clean.TokensOut)
	}
	if got := reg.Counter("llmpq_failover_replans_total").Value(); got != 1 {
		t.Errorf("replans counter %.0f, want 1 (one replan for the whole worker)", got)
	}
	if got := reg.Gauge("llmpq_failover_lost_devices").Value(); got != 2 {
		t.Errorf("lost-devices gauge %.0f, want 2", got)
	}
	werrs := join()
	if !errors.Is(werrs[0], ErrInjectedDeath) {
		t.Errorf("worker-a should report injected death, got %v", werrs[0])
	}
	if werrs[1] != nil {
		t.Errorf("survivor exit: %v", werrs[1])
	}
}

// TestConnDropReconnect: an injected transport-level conn drop severs a
// worker mid-run; the worker reconnects under its rejoin token within
// the lease and the run completes with stats identical to a clean one.
func TestConnDropReconnect(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	local, err := (&rt.Engine{Spec: s, Plan: p, Timer: assigner.ProfilerTimer{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindConnDrop, Conn: 0, AfterFrames: 6},
	}}
	if err := sched.Validate(p.NumStages()); err != nil {
		t.Fatal(err)
	}
	sim := obs.NewRegistry()
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := NewFaultListener(listen(t), sched, sim, ctrl)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Retry = retry.Policy{MaxAttempts: 10, BaseDelaySec: 0.02, Factor: 2, MaxDelaySec: 0.2, JitterFrac: 0.2}
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 2 * time.Second,
		Obs: sim, CtrlObs: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("a transient conn drop must heal without a replan")
	}
	if res.First.TokensOut != local.TokensOut || res.First.LatencySec != local.LatencySec {
		t.Errorf("stats diverged after reconnect: %+v vs %+v", res.First, local)
	}
	var buf bytes.Buffer
	if err := sim.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "llmpq_dist_injected_conn_drops_total 1") {
		t.Errorf("expected exactly one injected conn drop:\n%s", buf.String())
	}
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
}

// TestConnDropAtRunEnd: a worker whose connection drops around the end
// of the run — after any of the last four frames it carries (its last
// answers, then the Bye) — still reattaches, is told Bye and exits
// cleanly, instead of redialling a coordinator that is gone. A
// connection carries the hello, the welcome, one batch and one answer
// per pass, and the Bye; an hour-long heartbeat adds no frame.
func TestConnDropAtRunEnd(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	frames := 3 + 2*s.Work.Generate
	for conn := 0; conn < 2; conn++ {
		for after := frames - 3; after <= frames; after++ {
			t.Run(fmt.Sprintf("conn%d/after%d", conn, after), func(t *testing.T) {
				sched := &chaos.Schedule{Faults: []chaos.Fault{
					{Kind: chaos.KindConnDrop, Conn: conn, AfterFrames: after},
				}}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				sim := obs.NewRegistry()
				ln := NewFaultListener(listen(t), sched, sim, nil)
				join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
					cfg.Retry = retry.Policy{MaxAttempts: 10, BaseDelaySec: 0.02, Factor: 2, MaxDelaySec: 0.2, JitterFrac: 0.2}
				})
				res, err := Serve(ctx, Config{
					Listener: ln, Workers: 2, Spec: s, Plan: p,
					Heartbeat: time.Hour, Lease: 2 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Replanned {
					t.Error("a transient conn drop must heal without a replan")
				}
				for i, werr := range join() {
					if werr != nil {
						t.Errorf("worker %d exit: %v", i, werr)
					}
				}
				if n := sim.Counter("llmpq_dist_injected_conn_drops_total").Value(); n != 1 {
					t.Errorf("%.0f injected conn drops, want 1", n)
				}
			})
		}
	}
}

// TestPartitionHeals: a brief full partition severs every connection;
// with a lease comfortably longer than the window, both workers
// reattach and the run completes without a replan.
func TestPartitionHeals(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindPartition, Conn: -1, AtSec: 0.1, DurationSec: 0.1},
	}}
	if err := sched.Validate(p.NumStages()); err != nil {
		t.Fatal(err)
	}
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := NewFaultListener(listen(t), sched, nil, ctrl)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		// The hold paces the run past the partition window; the patient
		// retry policy outlives it.
		cfg.Hold = 10 * time.Millisecond
		cfg.Retry = retry.Policy{MaxAttempts: 12, BaseDelaySec: 0.05, Factor: 2, MaxDelaySec: 0.2, JitterFrac: 0.2}
	})
	res, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("a partition shorter than the lease must heal without a replan")
	}
	if res.First.TokensOut != s.Work.GlobalBatch*s.Work.Generate {
		t.Errorf("tokens %d, want %d", res.First.TokensOut, s.Work.GlobalBatch*s.Work.Generate)
	}
	var buf bytes.Buffer
	if werr := ctrl.WriteText(&buf); werr != nil {
		t.Fatal(werr)
	}
	if !strings.Contains(buf.String(), "llmpq_dist_partition_severs_total") {
		t.Errorf("the partition window never fired:\n%s", buf.String())
	}
	for i, werr := range join() {
		if werr != nil {
			t.Errorf("worker %d exit: %v", i, werr)
		}
	}
}

// TestDeadlineAbort: a worker holding longer than the round deadline
// aborts every evaluation; after the retry budget the coordinator fails
// the run with a deadline error instead of hanging.
func TestDeadlineAbort(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	ctrl := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln := listen(t)
	join := startWorkers(ctx, 2, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Hold = 300 * time.Millisecond
	})
	_, err := Serve(ctx, Config{
		Listener: ln, Workers: 2, Spec: s, Plan: p,
		Heartbeat: 50 * time.Millisecond, Lease: 5 * time.Second,
		RoundDeadline: 50 * time.Millisecond,
		CtrlObs:       ctrl,
	})
	if err == nil {
		t.Fatal("holding past the deadline must fail the run")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error should name the deadline: %v", err)
	}
	var lost *rt.DeviceLostError
	if errors.As(err, &lost) {
		t.Error("a deadline failure must not masquerade as device loss")
	}
	cancel()
	join()
	var buf bytes.Buffer
	if werr := ctrl.WriteText(&buf); werr != nil {
		t.Fatal(werr)
	}
	if !strings.Contains(buf.String(), "llmpq_dist_deadline_aborts_total") {
		t.Errorf("control metrics missing deadline aborts:\n%s", buf.String())
	}
}

// TestVersionMismatchRejected: a hello with the wrong protocol version
// is rejected before joining; the worker gives up instead of retrying.
func TestVersionMismatchRejected(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := listen(t)
	serveDone := make(chan error, 1)
	go func() {
		_, err := Serve(ctx, Config{
			Listener: ln, Workers: 1, Spec: s, Plan: p,
			JoinTimeout: 5 * time.Second,
		})
		serveDone <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := newWire(c, nil)
	if err := w.send(&Message{Type: MsgHello, Hello: &Hello{Version: ProtocolVersion + 1, Name: "time-traveler"}}); err != nil {
		t.Fatal(err)
	}
	msg, err := w.recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgReject || !strings.Contains(msg.Reject.Reason, "version") {
		t.Fatalf("want a version reject, got %+v", msg)
	}
	w.close()
	cancel()
	if err := <-serveDone; err == nil {
		t.Error("coordinator without workers should fail once cancelled")
	}
}

// gatedTimer is the roofline timer held until release closes, so a
// worker cannot finish the job before the test has done its part.
type gatedTimer struct{ release <-chan struct{} }

func (g gatedTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	<-g.release
	return assigner.ProfilerTimer{}.Layer(gpu, cfg, w)
}

// TestRejoinTokenGuardsName: a second worker claiming an admitted name
// without the rejoin token is turned away. The legitimate worker's
// evaluations are gated until the squatter returns, so the job cannot
// finish and close the coordinator before the squatter's handshake.
func TestRejoinTokenGuardsName(t *testing.T) {
	s := distSpec(t)
	p := distPlan(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	release := make(chan struct{})
	join := startWorkers(ctx, 1, ln.Addr().String(), func(i int, cfg *WorkerConfig) {
		cfg.Name = "only"
		cfg.Timer = gatedTimer{release}
	})
	attached := make(chan struct{})
	var attachOnce sync.Once
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_, err := Serve(ctx, Config{
			Listener: ln, Workers: 1, Spec: s, Plan: p,
			Heartbeat: 100 * time.Millisecond, Lease: 5 * time.Second,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "attached") {
					attachOnce.Do(func() { close(attached) })
				}
			},
		})
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	// Squat the name only after the legitimate worker holds it.
	select {
	case <-attached:
	case <-ctx.Done():
		t.Fatal("worker never attached")
	}
	err := RunWorker(ctx, WorkerConfig{
		Name: "only", Connect: ln.Addr().String(),
		Retry: retry.Policy{MaxAttempts: 1, BaseDelaySec: 0.01, Factor: 2, MaxDelaySec: 0.1},
	})
	close(release)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("squatter should be rejected, got %v", err)
	}
	<-serveDone
	join()
}
