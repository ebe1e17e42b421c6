package serve

import (
	"strings"
)

// Wire types for the OpenAI-compatible completions surface. Only the
// fields the gateway acts on are declared; unknown fields in request
// bodies are tolerated and ignored, like the real API.

// CompletionRequest is the POST /v1/completions body.
type CompletionRequest struct {
	Model  string `json:"model"`
	Prompt string `json:"prompt"`
	// MaxTokens is the generation budget. nil selects the server cap
	// (Engine.MaxNew); zero or negative values are rejected with 400,
	// values above the cap with 400 as well (the simulator bounds
	// per-request work).
	MaxTokens *int `json:"max_tokens"`
	// Stream selects SSE token streaming over a single JSON response.
	Stream bool `json:"stream"`
}

// Choice is one completion alternative (the gateway always returns one).
type Choice struct {
	Text         string  `json:"text"`
	Index        int     `json:"index"`
	FinishReason *string `json:"finish_reason"`
}

// Usage is the OpenAI token-accounting block.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// Meta is the llmpq extension block: serving state the paper's adaptive
// machinery may have changed while the request ran, surfaced per
// response so clients observe downshifts instead of inferring them.
type Meta struct {
	// Bits is the weight precision the request finished under.
	Bits int `json:"bits"`
	// Downshifts counts precision drops since the server started.
	Downshifts int `json:"downshifts"`
	// KVCapacityTokens is the current paged-KV pool size.
	KVCapacityTokens int `json:"kv_capacity_tokens"`
	// SimLatencySeconds is the request's simulated queue+serve latency.
	SimLatencySeconds float64 `json:"sim_latency_seconds"`
	// PeakBatch is the largest continuous batch any decode step has run.
	PeakBatch int `json:"peak_batch"`
	// DegradationTier is how many precision steps below the configured
	// bitwidth the engine is serving at (0 = full precision).
	DegradationTier int `json:"degradation_tier"`
	// Healing reports the engine has upshifted at least one step back
	// from its deepest downshift but has not reached full precision yet.
	Healing bool `json:"healing,omitempty"`
}

// CompletionResponse is both the unary response body and the SSE chunk
// payload (OpenAI's legacy completions stream reuses the object shape).
type CompletionResponse struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
	Usage   *Usage   `json:"usage,omitempty"`
	LLMPQ   *Meta    `json:"llmpq,omitempty"`
}

// apiError mirrors the OpenAI error envelope.
type apiError struct {
	Message string `json:"message"`
	Type    string `json:"type"`
	Code    string `json:"code,omitempty"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// PromptTokens estimates a prompt's token count. The repo has no real
// tokenizer — the simulator only consumes a length — so
// whitespace-separated fields stand in for tokens, deterministically.
func PromptTokens(s string) int { return len(strings.Fields(s)) }

// tokenVocab is the synthetic decode vocabulary: the simulator schedules
// tokens, it does not predict them, so streamed text is a deterministic
// cycle — enough for clients to count and display.
var tokenVocab = [...]string{
	"the", "planner", "serves", "quantized", "layers", "across",
	"heterogeneous", "devices", "with", "phase", "aware", "partitions",
	"and", "adaptive", "bitwidths", "under", "paged", "kv", "batching", "pressure",
}

// tokenText renders the i-th generated token (0-based) of a completion.
func tokenText(i int) string {
	if i < 0 {
		i = 0
	}
	return " " + tokenVocab[i%len(tokenVocab)]
}

// completionText renders the full n-token completion.
func completionText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(tokenText(i))
	}
	return b.String()
}
