package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds request bodies so hostile prompts cannot exhaust
// memory before validation runs (the decoder sees a clean read error).
const maxBodyBytes = 1 << 20

// Handler builds the gateway's HTTP surface:
//
//	POST /v1/completions  OpenAI-compatible completion (unary or SSE)
//	GET  /healthz         readiness: 200 serving (body names degraded/healing), 503 draining
//	GET  /metrics         ctrl + sim registries concatenated (scraping)
//	GET  /metrics/sim     sim registry only (byte-diffed artifact)
//
// Every route runs under the instrumentation middleware, which records
// wall-clock latency, in-flight count, and per-route/per-code request
// totals on the ctrl registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/completions", s.instrument("/v1/completions", s.handleCompletions))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("/metrics/sim", s.instrument("/metrics/sim", s.handleSimMetrics))
	return mux
}

// statusRecorder captures the response code for instrumentation while
// forwarding Flush so SSE streaming keeps working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route with the ctrl-registry HTTP metrics. All of
// this is wall-clock territory — serve is a ctrl-role package — and none
// of it may touch the sim registry.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.cm.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		s.cm.inflight.Add(-1)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.cm.latency.Observe(time.Since(start).Seconds())
		s.cm.request(route, rec.code)
	})
}

// writeJSON encodes v as the response body. Encode errors after the
// header is committed can only be logged.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.opts.Logf("serve: encode response: %v", err)
	}
}

// writeError emits the OpenAI error envelope.
func (s *Server) writeError(w http.ResponseWriter, code int, errType, msg string) {
	s.writeJSON(w, code, errorResponse{Error: apiError{
		Message: msg,
		Type:    errType,
		Code:    strconv.Itoa(code),
	}})
}

// healthBody is the /healthz response.
type healthBody struct {
	Status string `json:"status"`
	// DegradationTier is precision steps below the configured bitwidth;
	// only present while degraded or healing.
	DegradationTier int `json:"degradation_tier,omitempty"`
}

// handleHealthz reports readiness. A degraded or healing engine is still
// serving — load balancers must not evict it — so those states stay 200
// and only the body names the tier; draining alone is 503.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining"})
		return
	}
	tier, healing := s.Health()
	switch {
	case healing:
		s.writeJSON(w, http.StatusOK, healthBody{Status: "healing", DegradationTier: tier})
	case tier > 0:
		s.writeJSON(w, http.StatusOK, healthBody{Status: "degraded", DegradationTier: tier})
	default:
		s.writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
	}
}

// handleMetrics serves both registries for scraping: ctrl first (the
// wall-clock families), then the deterministic sim families. Scrapers
// get one endpoint; the byte-diff never reads this one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.opts.Ctrl.WriteText(w); err != nil {
		s.opts.Logf("serve: write ctrl metrics: %v", err)
		return
	}
	if err := s.opts.Sim.WriteText(w); err != nil {
		s.opts.Logf("serve: write sim metrics: %v", err)
	}
}

// handleSimMetrics serves the sim registry alone: the deterministic
// artifact that two identically-seeded runs must reproduce byte for
// byte (scripts/verify.sh asserts exactly that).
func (s *Server) handleSimMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.opts.Sim.WriteText(w); err != nil {
		s.opts.Logf("serve: write sim metrics: %v", err)
	}
}

// decodeCompletionRequest parses and validates the request body,
// returning the resolved token counts. A non-nil error carries the
// client-facing message for a 400.
func (s *Server) decodeCompletionRequest(r *http.Request) (req CompletionRequest, promptTok, maxTok int, err error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	if err = dec.Decode(&req); err != nil {
		return req, 0, 0, fmt.Errorf("invalid JSON body: %v", err)
	}
	promptTok = PromptTokens(req.Prompt)
	if promptTok <= 0 {
		return req, 0, 0, fmt.Errorf("prompt must contain at least one token")
	}
	// A request that omits max_tokens gets the per-request cap.
	maxTok = s.opts.Engine.MaxNew
	if req.MaxTokens != nil {
		maxTok = *req.MaxTokens
	}
	if maxTok <= 0 {
		return req, 0, 0, fmt.Errorf("max_tokens must be positive, got %d", maxTok)
	}
	if limit := s.opts.Engine.MaxNew; maxTok > limit {
		return req, 0, 0, fmt.Errorf("max_tokens %d exceeds the server cap %d", maxTok, limit)
	}
	return req, promptTok, maxTok, nil
}

func (s *Server) handleCompletions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
		return
	}
	req, promptTok, maxTok, err := s.decodeCompletionRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	adm := s.submit(promptTok, maxTok)
	switch adm.refusal {
	case 0:
	case http.StatusServiceUnavailable:
		s.cm.drainRefusals.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server_error", "server is draining")
		return
	case http.StatusTooManyRequests:
		s.cm.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(adm.retryAfter))
		s.writeError(w, http.StatusTooManyRequests, "rate_limit_error",
			"admission queue at the shed watermark; retry later")
		return
	default:
		s.writeError(w, adm.refusal, "invalid_request_error", adm.err.Error())
		return
	}
	defer s.release(adm.req)
	s.cond.Broadcast() // wake the scheduler for the new arrival

	modelName := req.Model
	if modelName == "" {
		modelName = s.opts.Engine.Model.Name
	}
	id := fmt.Sprintf("cmpl-%d", adm.req.ID())
	created := time.Now().Unix()

	if req.Stream {
		s.streamCompletion(w, r, adm, id, modelName, created, promptTok)
		return
	}
	s.unaryCompletion(w, r, adm, id, modelName, created, promptTok)
}

// unaryCompletion waits for the request to finish and writes one JSON
// body carrying the whole completion.
func (s *Server) unaryCompletion(w http.ResponseWriter, r *http.Request, adm admission, id, modelName string, created int64, promptTok int) {
	done := 0
	for {
		select {
		case <-r.Context().Done():
			// Client gone; the engine still finishes the request (release
			// drops the stream so remaining hooks are no-ops).
			return
		case ev, ok := <-adm.ch:
			if !ok {
				s.writeError(w, http.StatusInternalServerError, "server_error", "scheduler failed")
				return
			}
			switch ev.kind {
			case evToken:
				done = ev.n
			case evShed:
				s.cm.shed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.shedRetryAfter()))
				s.writeError(w, http.StatusTooManyRequests, "rate_limit_error",
					"request shed before admission; retry later")
				return
			case evFinish:
				done = ev.n
				reason := "length"
				s.writeJSON(w, http.StatusOK, CompletionResponse{
					ID: id, Object: "text_completion", Created: created, Model: modelName,
					Choices: []Choice{{Text: completionText(done), FinishReason: &reason}},
					Usage: &Usage{
						PromptTokens:     promptTok,
						CompletionTokens: done,
						TotalTokens:      promptTok + done,
					},
					LLMPQ: s.meta(adm.req),
				})
				return
			}
		}
	}
}

// streamCompletion relays the request's lifecycle as SSE chunks: one
// chunk per decoded token, a final usage+metadata chunk, then [DONE].
// The 200 is committed only after the first event, so a request shed at
// the admission step can still produce a clean 429.
func (s *Server) streamCompletion(w http.ResponseWriter, r *http.Request, adm admission, id, modelName string, created int64, promptTok int) {
	var sw *sseWriter
	defer func() {
		if sw != nil {
			s.cm.sseBytes.Add(float64(sw.Bytes()))
		}
	}()
	chunk := func(text string, reason *string) CompletionResponse {
		return CompletionResponse{
			ID: id, Object: "text_completion", Created: created, Model: modelName,
			Choices: []Choice{{Text: text, FinishReason: reason}},
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-adm.ch:
			if !ok {
				if sw == nil {
					s.writeError(w, http.StatusInternalServerError, "server_error", "scheduler failed")
				}
				return
			}
			switch ev.kind {
			case evShed:
				s.cm.shed.Inc()
				if sw == nil {
					w.Header().Set("Retry-After", strconv.Itoa(s.shedRetryAfter()))
					s.writeError(w, http.StatusTooManyRequests, "rate_limit_error",
						"request shed before admission; retry later")
				}
				return
			case evToken:
				if sw == nil {
					sw = newSSEWriter(w)
				}
				if err := sw.Event(chunk(tokenText(ev.n-1), nil)); err != nil {
					return
				}
			case evFinish:
				if sw == nil {
					sw = newSSEWriter(w)
				}
				reason := "length"
				final := chunk("", &reason)
				final.Usage = &Usage{
					PromptTokens:     promptTok,
					CompletionTokens: ev.n,
					TotalTokens:      promptTok + ev.n,
				}
				final.LLMPQ = s.meta(adm.req)
				if err := sw.Event(final); err != nil {
					return
				}
				if err := sw.Done(); err != nil {
					s.opts.Logf("serve: write [DONE]: %v", err)
				}
				return
			}
		}
	}
}

// shedRetryAfter is retryAfterLocked for call sites not holding the lock.
func (s *Server) shedRetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked()
}
