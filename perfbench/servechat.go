package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serveChat is a closed loop of two keep-alive HTTP/1.1 clients that
// stream SSE completions from serve.New(...).Handler() over loopback.
// One session holds the whole fixed request count, because the cost of
// a request grows with the number served before it (every response
// calls online.Engine.Stats, which copies and sorts all finished
// requests); the fixed size makes that show the same way on every run.
type serveChat struct{}

const (
	scClients = 2
	// scRequestsPerSecond sizes the session from --seconds.
	scRequestsPerSecond = 600
	// Output lengths are a fixed multiset, scMinOut..scMinOut+scSpread-1
	// in equal shares, shuffled by the seed: every seed streams the same
	// token total and the latency distribution has no gaps.
	scMinOut   = 24
	scSpread   = 48
	scMaxNew   = 256
	scWarmReqs = 200
)

type scRequest struct {
	prompt    int
	maxTokens int
}

// scTiming is what one client saw of one request.
type scTiming struct {
	ttftMS, latMS float64
	tokens        int
	ok            bool
}

type scInstance struct {
	cfg  config
	reqs []scRequest
	gw   *scGateway

	// Traced-pass state.
	timings    []scTiming
	statsStart float64 // µs
	statsEnd   float64 // µs
}

// scGateway is one server behind a loopback listener.
type scGateway struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func (serveChat) setUp(cfg config) (instance, error) {
	reqs := scRequests(cfg.ops(scRequestsPerSecond, scSpread), cfg.seed)
	gw, err := newGateway(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &scInstance{cfg: cfg, reqs: reqs, gw: gw}, nil
}

// scRequests generates the session: ShareGPT-shaped prompt lengths and
// the shuffled output-length multiset.
func scRequests(n int, seed int64) []scRequest {
	prompts := workload.ShareGPTLengths(n, model.OPT13B.MaxPosEmb-scMaxNew-1, seed)
	outs := make([]int, n)
	for i := range outs {
		outs[i] = scMinOut + i%scSpread
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ce))
	rng.Shuffle(n, func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
	reqs := make([]scRequest, n)
	for i := range reqs {
		reqs[i] = scRequest{prompt: prompts[i], maxTokens: outs[i]}
	}
	return reqs
}

// body is the request's JSON, built when it is sent so the session's
// inputs do not sit in the heap the benchmark reports.
func (r scRequest) body() ([]byte, error) {
	return json.Marshal(serve.CompletionRequest{
		Model: model.OPT13B.Name, Prompt: strings.Repeat("tok ", r.prompt),
		MaxTokens: &r.maxTokens, Stream: true,
	})
}

func newGateway(seed int64) (*scGateway, error) {
	srv, err := serve.New(serve.Options{
		Engine: online.Config{
			GPU: hardware.A100, Model: model.OPT13B, Bits: 8,
			MaxNew: scMaxNew, MaxBatch: 16, ShedDepth: 64, Seed: seed,
		},
		RetrySeed: seed,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // Close always returns nil; the listen error is the one to report
		return nil, err
	}
	gw := &scGateway{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/v1/completions",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: scClients, DisableCompression: true,
		}},
	}
	go func() { gw.done <- gw.hs.Serve(ln) }()
	return gw, nil
}

// close drains the engine, stops the HTTP server and waits for it.
func (g *scGateway) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := g.srv.Drain(ctx)
	serr := g.hs.Shutdown(ctx)
	if err := <-g.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	g.client.CloseIdleConnections()
	if derr != nil {
		return derr
	}
	return serr
}

// warmUp runs a short session against a throwaway server, so the timed
// session starts on a fresh engine.
func (s *scInstance) warmUp() error {
	gw, err := newGateway(s.cfg.seed)
	if err != nil {
		return err
	}
	warm := s.reqs
	if len(warm) > scWarmReqs {
		warm = warm[:scWarmReqs]
	}
	timings := runSession(gw, warm, nil)
	if err := gw.close(); err != nil {
		return err
	}
	for i, t := range timings {
		if !t.ok {
			return fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return nil
}

func (s *scInstance) measure(tr *tracer) (*pass, error) {
	ps := &pass{attempted: len(s.reqs)}
	if tr != nil {
		s.statsStart = engineStatsUS(s.gw.srv, tr)
	}
	start := time.Now()
	timings := runSession(s.gw, s.reqs, tr)
	ps.wallSec = time.Since(start).Seconds()
	if tr != nil {
		s.statsEnd = engineStatsUS(s.gw.srv, tr)
		s.timings = timings
	}
	var lat []float64
	streamed := 0
	for i, t := range timings {
		if !t.ok {
			ps.fail("request %d: stream did not end with [DONE], %d chunks and matching usage for max_tokens %d", i, t.tokens, s.reqs[i].maxTokens)
			continue
		}
		lat = append(lat, t.latMS)
		streamed += t.tokens
	}
	st := s.gw.srv.EngineStats()
	if st.GeneratedTok != streamed {
		ps.fail("streamed %d tokens, engine generated %d", streamed, st.GeneratedTok)
	}
	ps.units = float64(len(lat))
	ps.latP50, ps.latP90 = quantile(lat, 0.5), quantile(lat, 0.9)
	ps.simTokS = st.Throughput
	return ps, nil
}

// engineStatsUS times serve.Server.EngineStats: the median of nine calls.
func engineStatsUS(srv *serve.Server, tr *tracer) float64 {
	var xs []float64
	for i := 0; i < 9; i++ {
		sp := tr.begin("serve.EngineStats", span{}, -1, 0)
		t0 := time.Now()
		srv.EngineStats()
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
		sp.end()
	}
	return quantile(xs, 0.5)
}

// runSession drives the requests through the gateway with scClients
// closed-loop clients; client c sends requests c, c+scClients, ….
func runSession(gw *scGateway, reqs []scRequest, tr *tracer) []scTiming {
	timings := make([]scTiming, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < scClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += scClients {
				timings[i] = gw.complete(reqs[i], int64(i), c, tr)
			}
		}(c)
	}
	wg.Wait()
	return timings
}

// complete sends one streaming completion and checks its stream: one
// chunk per requested token, a final chunk whose usage matches, then
// [DONE].
func (g *scGateway) complete(r scRequest, id int64, client int, tr *tracer) scTiming {
	var t scTiming
	root := tr.begin("serve.Handler", span{}, id, client+1)
	defer root.end()
	body, err := r.body()
	if err != nil {
		return t
	}
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return t
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	ttfb := tr.begin("serve.ttfb", root, id, client+1)
	resp, err := g.client.Do(req)
	ttfb.end()
	if err != nil {
		return t
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t
	}
	br := bufio.NewReader(resp.Body)
	var usage *serve.Usage
	done, first := false, true
	for !done {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return t
		}
		payload, ok := bytes.CutPrefix(bytes.TrimRight(line, "\n"), []byte("data: "))
		if !ok {
			continue
		}
		if first {
			t.ttftMS, first = ms(time.Since(start)), false
		}
		switch {
		case bytes.Equal(payload, []byte("[DONE]")):
			done = true
		case bytes.Contains(payload, []byte(`"usage"`)):
			var final serve.CompletionResponse
			if err := json.Unmarshal(payload, &final); err != nil {
				return t
			}
			usage = final.Usage
		default:
			t.tokens++
		}
	}
	t.latMS = ms(time.Since(start))
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return t
	}
	t.ok = usage != nil && t.tokens == r.maxTokens &&
		usage.CompletionTokens == r.maxTokens && usage.PromptTokens == r.prompt
	return t
}

func (s *scInstance) layers(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	var ttft, lat []float64
	for _, t := range s.timings {
		if t.ok {
			ttft = append(ttft, t.ttftMS)
		}
		lat = append(lat, t.latMS)
	}
	out["serve.ttfb_ms_p50"] = quantile(spanDurations(spans, "serve.ttfb"), 0.5)
	out["serve.ttft_ms_p50"] = quantile(ttft, 0.5)
	ctrl := s.gw.srv.CtrlRegistry()
	out["serve.server_request_ms_p50"] = ctrl.Histogram("llmpq_serve_http_request_seconds", obs.TimeBuckets()).Quantile(0.5) * 1e3
	if d := len(lat) / 10; d > 0 {
		out["serve.request_ms_first_decile"] = quantile(lat[:d], 0.5)
		out["serve.request_ms_last_decile"] = quantile(lat[len(lat)-d:], 0.5)
	}
	out["serve.engine_stats_us_start"] = s.statsStart
	out["serve.engine_stats_us_end"] = s.statsEnd
	if n := len(s.timings); n > 0 {
		out["serve.sse_bytes_per_request"] = ctrl.Counter("llmpq_serve_http_sse_bytes_total").Value() / float64(n)
	}
	sim := s.gw.srv.SimRegistry()
	out["online.step_batch_mean"] = sim.Histogram("llmpq_online_step_batch", obs.LinearBuckets(1, 4, 16), obs.L("bits", "8")).Mean()
	return out
}

func (s *scInstance) close() {
	_ = s.gw.close() // teardown after the measurement; it cannot change the result
}
