package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/online"
)

// testOptions is the baseline gateway configuration for the e2e suite:
// a small generation cap keeps requests short, a modest StepHold paces
// the scheduler so concurrent arrivals join one continuous batch.
func testOptions() Options {
	return Options{
		Engine: online.Config{
			GPU: hardware.A100, Model: model.OPT13B, Bits: 8,
			MaxNew: 32, MaxBatch: 8, ShedDepth: 64, Seed: 7,
		},
		StepHold:  time.Millisecond,
		RetrySeed: 7,
	}
}

// newTestServer starts a gateway plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := testOptions()
	opts.Logf = t.Logf
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, ts
}

func postCompletion(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeCompletion(t *testing.T, resp *http.Response) CompletionResponse {
	t.Helper()
	defer resp.Body.Close()
	var cr CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode completion: %v", err)
	}
	return cr
}

// sseStream collects a full SSE exchange: the data frames before the
// terminator, and whether [DONE] arrived.
type sseStream struct {
	chunks []CompletionResponse
	done   bool
}

// tokens counts the token-bearing chunks (non-empty choice text).
func (s sseStream) tokens() int {
	n := 0
	for _, c := range s.chunks {
		if len(c.Choices) == 1 && c.Choices[0].Text != "" {
			n++
		}
	}
	return n
}

// final returns the usage-bearing terminal chunk.
func (s sseStream) final(t *testing.T) CompletionResponse {
	t.Helper()
	if len(s.chunks) == 0 {
		t.Fatal("stream carried no chunks")
	}
	last := s.chunks[len(s.chunks)-1]
	if last.Usage == nil {
		t.Fatalf("terminal chunk has no usage block: %+v", last)
	}
	return last
}

// readSSE parses "data: ..." frames off resp until [DONE] or EOF.
func readSSE(t *testing.T, resp *http.Response) sseStream {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type %q", ct)
	}
	return readSSEFrom(t, resp.Body)
}

// openStream consumes exactly the first SSE data frame off a streaming
// response — proof the request was admitted and is decoding — and
// returns a buffered reader positioned after it for readSSEFrom.
func openStream(t *testing.T, resp *http.Response) *bufio.Reader {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("first frame %q is not an SSE data line", line)
	}
	return br
}

// readSSEFrom parses frames from r (a fresh body or an openStream
// continuation) until [DONE] or EOF.
func readSSEFrom(t *testing.T, r io.Reader) sseStream {
	t.Helper()
	var out sseStream
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("malformed SSE line %q", line)
		}
		if payload == "[DONE]" {
			out.done = true
			break
		}
		var cr CompletionResponse
		if err := json.Unmarshal([]byte(payload), &cr); err != nil {
			t.Fatalf("bad chunk %q: %v", payload, err)
		}
		out.chunks = append(out.chunks, cr)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCompletionUnary covers the non-streaming path end to end: the
// OpenAI response shape, token accounting, and the llmpq metadata block.
func TestCompletionUnary(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	resp := postCompletion(t, ts.URL, `{"prompt": "partition the layers across devices", "max_tokens": 8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cr := decodeCompletion(t, resp)
	if cr.Object != "text_completion" || cr.Model != "opt-13b" || !strings.HasPrefix(cr.ID, "cmpl-") {
		t.Errorf("envelope %+v", cr)
	}
	if len(cr.Choices) != 1 || cr.Choices[0].FinishReason == nil || *cr.Choices[0].FinishReason != "length" {
		t.Fatalf("choices %+v", cr.Choices)
	}
	if got := len(strings.Fields(cr.Choices[0].Text)); got != 8 {
		t.Errorf("completion carries %d tokens, want 8", got)
	}
	if cr.Usage == nil || cr.Usage.PromptTokens != 5 || cr.Usage.CompletionTokens != 8 || cr.Usage.TotalTokens != 13 {
		t.Errorf("usage %+v", cr.Usage)
	}
	if cr.LLMPQ == nil || cr.LLMPQ.Bits != 8 || cr.LLMPQ.KVCapacityTokens <= 0 || cr.LLMPQ.SimLatencySeconds <= 0 {
		t.Errorf("llmpq meta %+v", cr.LLMPQ)
	}
	if st := srv.EngineStats(); st.Completed != 1 || st.GeneratedTok != 8 {
		t.Errorf("engine stats %+v", st)
	}
}

// TestCompletionStream covers SSE streaming: one chunk per decoded
// token, a usage-bearing terminal chunk, the [DONE] terminator — and the
// token count agreeing with the engine's own Stats.
func TestCompletionStream(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	resp := postCompletion(t, ts.URL, `{"prompt": "stream please", "max_tokens": 12, "stream": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := readSSE(t, resp)
	if !st.done {
		t.Error("stream never sent [DONE]")
	}
	if st.tokens() != 12 {
		t.Errorf("streamed %d token chunks, want 12", st.tokens())
	}
	fin := st.final(t)
	if fin.Usage.CompletionTokens != 12 || fin.Usage.PromptTokens != 2 {
		t.Errorf("final usage %+v", fin.Usage)
	}
	if fin.LLMPQ == nil || fin.LLMPQ.Bits != 8 {
		t.Errorf("final meta %+v", fin.LLMPQ)
	}
	es := srv.EngineStats()
	if es.GeneratedTok != st.tokens() {
		t.Errorf("SSE token count %d != engine GeneratedTok %d", st.tokens(), es.GeneratedTok)
	}
}

// TestDefaultMaxTokens covers a request that omits max_tokens: unary
// and streamed, it generates exactly Engine.MaxNew tokens.
func TestDefaultMaxTokens(t *testing.T) {
	_, ts := newTestServer(t, nil)
	want := testOptions().Engine.MaxNew

	resp := postCompletion(t, ts.URL, `{"prompt": "no budget given"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unary status %d", resp.StatusCode)
	}
	if cr := decodeCompletion(t, resp); cr.Usage == nil || cr.Usage.CompletionTokens != want {
		t.Errorf("unary usage %+v, want %d completion tokens", cr.Usage, want)
	}

	resp = postCompletion(t, ts.URL, `{"prompt": "no budget given", "stream": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if st := readSSE(t, resp); st.tokens() != want {
		t.Errorf("streamed %d token chunks, want %d", st.tokens(), want)
	}
}

// streamClients runs n concurrent streaming completions of maxTokens
// tokens each and returns their parsed streams in client order.
func streamClients(t *testing.T, url string, n, maxTokens int) []sseStream {
	t.Helper()
	var wg sync.WaitGroup
	streams := make([]sseStream, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"prompt": "client %d asks for tokens", "max_tokens": %d, "stream": true}`, i, maxTokens)
			resp, err := http.Post(url+"/v1/completions", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				resp.Body.Close()
				return
			}
			streams[i] = readSSE(t, resp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return streams
}

// TestConcurrentClientsBatch drives four concurrent streaming clients
// and checks they decode inside ONE continuous batch: the engine's peak
// step batch must reach the client count, and every stream still gets
// its full token budget.
func TestConcurrentClientsBatch(t *testing.T) {
	const clients = 4
	srv, ts := newTestServer(t, func(o *Options) {
		// A wider hold keeps the batch window open while the clients dial.
		o.StepHold = 5 * time.Millisecond
	})
	streams := streamClients(t, ts.URL, clients, 16)
	for i, st := range streams {
		if st.tokens() != 16 || !st.done {
			t.Errorf("client %d: %d tokens, done=%v, want 16/true", i, st.tokens(), st.done)
		}
	}
	es := srv.EngineStats()
	if es.Completed != clients {
		t.Errorf("completed %d, want %d", es.Completed, clients)
	}
	if es.GeneratedTok != clients*16 {
		t.Errorf("generated %d tokens, want %d", es.GeneratedTok, clients*16)
	}
	if es.PeakBatch < clients {
		t.Errorf("peak batch %d: the %d concurrent clients never decoded together", es.PeakBatch, clients)
	}
}

// TestShed429 pins the load-shed contract: with the batch full and the
// waiting queue at the ShedDepth watermark, a new request is refused
// with 429 and a positive Retry-After derived from the retry policy —
// and once the backlog drains the same server admits work again.
func TestShed429(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.Engine.MaxBatch = 1
		o.Engine.ShedDepth = 1
		o.StepHold = 10 * time.Millisecond // ~320ms of decode per request
	})
	// Client A: admitted into the (size-1) batch. Reading its first token
	// proves it left the queue.
	respA := postCompletion(t, ts.URL, `{"prompt": "long running request", "max_tokens": 32, "stream": true}`)
	defer respA.Body.Close()
	brA := openStream(t, respA)
	// Client B: admitted to the queue, cannot batch (MaxBatch 1).
	type result struct {
		code int
		err  error
	}
	bDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt": "queued request", "max_tokens": 4}`))
		if err != nil {
			bDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			bDone <- result{err: err}
			return
		}
		bDone <- result{code: resp.StatusCode}
	}()
	waitFor(t, "client B to queue", func() bool { return srv.Waiting() == 1 })

	// Client C: queue is at the watermark — shed.
	respC := postCompletion(t, ts.URL, `{"prompt": "one request too many", "max_tokens": 4}`)
	defer respC.Body.Close()
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client C status %d, want 429", respC.StatusCode)
	}
	ra, err := strconv.Atoi(respC.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want a positive integer", respC.Header.Get("Retry-After"))
	}
	var envC errorResponse
	if err := json.NewDecoder(respC.Body).Decode(&envC); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if envC.Error.Type != "rate_limit_error" {
		t.Errorf("429 error type %q", envC.Error.Type)
	}

	// Recovery: A and B complete; a post-backlog request sails through.
	// openStream already consumed A's first token, so 31 remain.
	if stA := readSSEFrom(t, brA); stA.tokens() != 31 || !stA.done {
		t.Errorf("client A streamed %d more tokens done=%v, want 31/true", stA.tokens(), stA.done)
	}
	rb := <-bDone
	if rb.err != nil || rb.code != http.StatusOK {
		t.Fatalf("client B: code %d err %v", rb.code, rb.err)
	}
	respD := postCompletion(t, ts.URL, `{"prompt": "after recovery", "max_tokens": 4}`)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d", respD.StatusCode)
	}
	decodeCompletion(t, respD)
	if v := srv.cm.shed.Value(); v != 1 {
		t.Errorf("ctrl shed counter %v, want 1", v)
	}
}

// TestGracefulDrain is the SIGTERM-equivalent: Drain stops admission
// (new requests get 503, /healthz flips to 503) while the in-flight
// stream runs to completion, and Drain only returns once it has.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.StepHold = 10 * time.Millisecond
	})
	resp := postCompletion(t, ts.URL, `{"prompt": "drain survivor", "max_tokens": 32, "stream": true}`)
	defer resp.Body.Close()
	br := openStream(t, resp)

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	waitFor(t, "drain to start", srv.Draining)

	// New work is refused while the old stream keeps flowing.
	refused := postCompletion(t, ts.URL, `{"prompt": "too late", "max_tokens": 4}`)
	defer refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("admission during drain: status %d, want 503", refused.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", hz.StatusCode)
	}

	// The in-flight request still completes in full (one token was
	// consumed by openStream, 31 remain).
	st := readSSEFrom(t, br)
	if st.tokens() != 31 || !st.done {
		t.Errorf("in-flight stream: %d more tokens done=%v, want 31/true", st.tokens(), st.done)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never returned after the in-flight request finished")
	}
	es := srv.EngineStats()
	if es.Completed != 1 {
		t.Errorf("completed %d, want 1", es.Completed)
	}
	if v := srv.cm.drainRefusals.Value(); v != 1 {
		t.Errorf("drain refusal counter %v, want 1", v)
	}
}

// TestBadRequests maps malformed inputs to 4xx, never 5xx: the fuzz
// target generalizes this, the table pins the specific contract.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"prompt": `, http.StatusBadRequest},
		{"empty prompt", `{"prompt": "", "max_tokens": 4}`, http.StatusBadRequest},
		{"whitespace prompt", `{"prompt": "   ", "max_tokens": 4}`, http.StatusBadRequest},
		{"zero max_tokens", `{"prompt": "hi there", "max_tokens": 0}`, http.StatusBadRequest},
		{"negative max_tokens", `{"prompt": "hi there", "max_tokens": -5}`, http.StatusBadRequest},
		{"max_tokens above cap", `{"prompt": "hi there", "max_tokens": 33}`, http.StatusBadRequest},
		{"context overflow", `{"prompt": "` + strings.Repeat("w ", 2048) + `", "max_tokens": 4}`, http.StatusBadRequest},
		{"wrong type", `{"prompt": 42}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postCompletion(t, ts.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var env errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Errorf("error envelope: %v", err)
			}
		})
	}
	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/completions")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status %d, want 405", resp.StatusCode)
		}
	})
}

// fetch returns the body of a GET as a string.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsSplit checks the two-registry contract over HTTP: /metrics
// carries both the wall-clock llmpq_serve_* families and the sim
// families, while /metrics/sim — the byte-diffed artifact — contains
// only deterministic llmpq_online_* series.
func TestMetricsSplit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postCompletion(t, ts.URL, `{"prompt": "observe me", "max_tokens": 4}`)
	decodeCompletion(t, resp)

	both := fetch(t, ts.URL+"/metrics")
	for _, fam := range []string{metricHTTPRequests, metricHTTPLatency, metricHTTPInflight, "llmpq_online_completed_total"} {
		if !strings.Contains(both, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	sim := fetch(t, ts.URL+"/metrics/sim")
	if strings.Contains(sim, "llmpq_serve_") {
		t.Error("/metrics/sim leaked wall-clock llmpq_serve_* families into the byte-diffed artifact")
	}
	if !strings.Contains(sim, "llmpq_online_completed_total") {
		t.Error("/metrics/sim missing the simulation families")
	}
}

// TestSimRegistryDeterminism is the byte-diff property the serve smoke
// in verify.sh stands on: two identically-seeded servers fed the same
// sequential request sequence expose byte-identical /metrics/sim dumps,
// even though their wall-clock ctrl metrics differ.
func TestSimRegistryDeterminism(t *testing.T) {
	run := func() string {
		_, ts := newTestServer(t, nil)
		for _, body := range []string{
			`{"prompt": "first request with a few tokens", "max_tokens": 8}`,
			`{"prompt": "second", "max_tokens": 16, "stream": true}`,
			`{"prompt": "third request", "max_tokens": 4}`,
		} {
			resp := postCompletion(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if strings.Contains(body, `"stream": true`) {
				readSSE(t, resp)
			} else {
				decodeCompletion(t, resp)
			}
		}
		return fetch(t, ts.URL+"/metrics/sim")
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("sim registry dumps diverged across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "llmpq_online_completed_total") {
		t.Error("sim dump missing completion counter")
	}
}

// TestServeSIGTERMDrain exercises Server.Serve's context-driven
// shutdown end to end on a real listener: cancelling the context (what
// the SIGTERM NotifyContext does in cmd/llmpq-serve) drains in-flight
// work before Serve returns.
func TestServeSIGTERMDrain(t *testing.T) {
	opts := testOptions()
	opts.StepHold = 10 * time.Millisecond
	opts.Logf = t.Logf
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln, 10*time.Second) }()
	url := "http://" + ln.Addr().String()

	resp, err := http.Post(url+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt": "outlive the signal", "max_tokens": 32, "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := openStream(t, resp)
	cancel() // the SIGTERM

	st := readSSEFrom(t, br)
	if st.tokens() != 31 || !st.done {
		t.Errorf("in-flight stream after SIGTERM: %d more tokens done=%v, want 31/true", st.tokens(), st.done)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after drain")
	}
	if es := srv.EngineStats(); es.Completed != 1 {
		t.Errorf("completed %d, want 1", es.Completed)
	}
}

// listenLoopback binds an ephemeral loopback port.
func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// TestSSEFrameEncoding pins the framing contract the fuzz target
// explores: payload text cannot forge a frame boundary.
func TestSSEFrameEncoding(t *testing.T) {
	frame, err := encodeSSEFrame(map[string]string{"text": "line\n\nbreak"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(frame, []byte("\n\n")) {
		t.Errorf("frame %q missing terminator", frame)
	}
	if n := bytes.Count(frame, []byte("\n\n")); n != 1 {
		t.Errorf("payload newlines forged %d frame boundaries", n)
	}
	if !bytes.HasPrefix(frame, []byte("data: ")) {
		t.Errorf("frame %q missing data prefix", frame)
	}
}

// TestUnfittableRequest429: a request that passes shape validation but
// can never fit the paged-KV pool is shed at the admission step — the
// handler must turn that post-admission OnShed into a 429 with a
// Retry-After hint, on both the unary and the streaming path (where the
// 200 has not been committed yet).
func TestUnfittableRequest429(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.Engine.GPU = hardware.T4 // opt-13b at 8-bit: pool < 1k tokens
	})
	pool := srv.EngineStats().KVCapacityTok
	prompt := strings.Repeat("w ", pool+1)
	for _, stream := range []bool{false, true} {
		body := fmt.Sprintf(`{"prompt": "%s", "max_tokens": 32, "stream": %v}`, prompt, stream)
		resp := postCompletion(t, ts.URL, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("stream=%v: status %d, want 429", stream, resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("stream=%v: Retry-After %q", stream, resp.Header.Get("Retry-After"))
		}
		resp.Body.Close()
	}
	// A fittable request on the same tiny pool still completes.
	resp := postCompletion(t, ts.URL, `{"prompt": "small prompt fits fine", "max_tokens": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fittable request status %d", resp.StatusCode)
	}
	decodeCompletion(t, resp)
}

// TestCloseFailsInflight: Close (the abort path, unlike Drain) fails
// open streams immediately — the unary handler answers 500, a committed
// stream is cut without [DONE] — and the scheduler exits with the
// backlog unfinished.
func TestCloseFailsInflight(t *testing.T) {
	opts := testOptions()
	opts.StepHold = 10 * time.Millisecond
	opts.Logf = t.Logf
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type unary struct {
		code int
		err  error
	}
	uc := make(chan unary, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt": "doomed unary", "max_tokens": 32}`))
		if err != nil {
			uc <- unary{err: err}
			return
		}
		defer resp.Body.Close()
		uc <- unary{code: resp.StatusCode}
	}()
	respS := postCompletion(t, ts.URL, `{"prompt": "doomed stream", "max_tokens": 32, "stream": true}`)
	defer respS.Body.Close()
	brS := openStream(t, respS)
	waitFor(t, "both requests in flight", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.inflight == 2
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if u := <-uc; u.err != nil || u.code != http.StatusInternalServerError {
		t.Errorf("aborted unary: code %d err %v, want 500", u.code, u.err)
	}
	if st := readSSEFrom(t, brS); st.done {
		t.Error("aborted stream still delivered [DONE]")
	}
	// Post-close admission is refused outright.
	late := postCompletion(t, ts.URL, `{"prompt": "after close", "max_tokens": 4}`)
	defer late.Body.Close()
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close status %d, want 503", late.StatusCode)
	}
}

// TestDrainContextExpiry: a Drain bounded by an already-expired context
// returns the context error without closing the scheduler; a second,
// unbounded Drain then completes normally.
func TestDrainContextExpiry(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.StepHold = 10 * time.Millisecond
	})
	resp := postCompletion(t, ts.URL, `{"prompt": "slow request", "max_tokens": 32, "stream": true}`)
	defer resp.Body.Close()
	br := openStream(t, resp)

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("bounded drain returned %v, want context.Canceled", err)
	}
	// Still draining, still serving the in-flight stream.
	if !srv.Draining() {
		t.Error("server stopped draining after the bounded attempt")
	}
	if st := readSSEFrom(t, br); st.tokens() != 31 || !st.done {
		t.Errorf("in-flight stream: %d tokens done=%v", st.tokens(), st.done)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestClientDisconnectMidStream: a client that vanishes mid-stream must
// not wedge the scheduler — the engine finishes the request and the
// server keeps serving others.
func TestClientDisconnectMidStream(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.StepHold = 5 * time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/completions",
		strings.NewReader(`{"prompt": "abandoned stream", "max_tokens": 32, "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	openStream(t, resp)
	cancel() // client walks away mid-decode
	resp.Body.Close()

	// The abandoned request still runs to completion in the engine.
	waitFor(t, "abandoned request to finish", func() bool {
		return srv.EngineStats().Completed == 1
	})
	next := postCompletion(t, ts.URL, `{"prompt": "next client", "max_tokens": 4}`)
	if next.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect status %d", next.StatusCode)
	}
	decodeCompletion(t, next)
}

// TestRegistryAccessors: the wired registries round-trip through the
// server, and defaults are allocated when omitted.
func TestRegistryAccessors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if srv.SimRegistry() == nil || srv.CtrlRegistry() == nil {
		t.Fatal("nil registry from accessor")
	}
	if srv.SimRegistry() == srv.CtrlRegistry() {
		t.Fatal("sim and ctrl registries must be distinct")
	}
}

// failWriter drops the connection after n successful writes.
type failWriter struct {
	hdr    http.Header
	writes int
	failAt int
}

func (f *failWriter) Header() http.Header { return f.hdr }
func (f *failWriter) WriteHeader(int)     {}
func (f *failWriter) Write(b []byte) (int, error) {
	f.writes++
	if f.writes >= f.failAt {
		return 0, fmt.Errorf("broken pipe")
	}
	return len(b), nil
}

// TestSSEWriterErrorLatch: the first write error latches — every later
// Event and Done is refused with the same error and no further bytes
// are counted.
func TestSSEWriterErrorLatch(t *testing.T) {
	sw := newSSEWriter(&failWriter{hdr: http.Header{}, failAt: 2})
	if err := sw.Event(map[string]int{"ok": 1}); err != nil {
		t.Fatalf("first event: %v", err)
	}
	n := sw.Bytes()
	if n == 0 {
		t.Fatal("no bytes counted for the successful frame")
	}
	err := sw.Event(map[string]int{"ok": 2})
	if err == nil {
		t.Fatal("write past failure succeeded")
	}
	if err2 := sw.Done(); err2 == nil || err2.Error() != err.Error() {
		t.Errorf("Done after failure: %v, want the latched %v", err2, err)
	}
	if got := sw.Event(map[string]int{"ok": 3}); got == nil {
		t.Error("Event after failure must refuse")
	}
	if sw.Bytes() != n {
		t.Errorf("bytes grew after failure: %d -> %d", n, sw.Bytes())
	}
	// Unencodable payloads surface (and latch) an encode error.
	sw2 := newSSEWriter(&failWriter{hdr: http.Header{}, failAt: 100})
	if err := sw2.Event(make(chan int)); err == nil {
		t.Error("unencodable payload must error")
	}
	if err := sw2.Done(); err == nil {
		t.Error("encode error must latch")
	}
}

// TestTokenText pins the synthetic vocabulary's edge cases.
func TestTokenText(t *testing.T) {
	if tokenText(-1) != tokenText(0) {
		t.Error("negative index must clamp to the first token")
	}
	if got := len(strings.Fields(completionText(5))); got != 5 {
		t.Errorf("completionText(5) has %d fields", got)
	}
	if completionText(0) != "" {
		t.Errorf("completionText(0) = %q", completionText(0))
	}
}
