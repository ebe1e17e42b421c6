GO ?= go

# Tier-1 verify: build, gofmt, stock vet, the domain lint suite, tests.
# perfbench/ is its own module, so the root ./... never compiles it;
# build and vet it here so deleting an export it calls fails the gate.
.PHONY: verify
verify:
	$(GO) build ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/llmpq-vet ./...
	$(GO) test ./...

# Domain lint suite alone.
.PHONY: vet
vet:
	$(GO) run ./cmd/llmpq-vet ./...

# Race lane: the pipeline engine (incl. the instrumented goroutine
# pipeline), online admission, simulated clock, observability registry,
# TP mesh search, the parallel planner search (assigner worker pool
# plus the lp/ilp solvers it calls concurrently), the chaos/failover
# fault-injection stack, the distributed control plane, the coordinator
# journal (concurrent appends), the HTTP serving front door
# (concurrent handlers sharing one engine), and the reference-model
# quality path (nn forward, training and calibration; quality; indicator)
# run under the race detector (documented in README "Correctness
# tooling"). scripts/verify.sh runs this target, so the package list
# lives only here.
.PHONY: verify-race
verify-race:
	$(GO) test -race ./internal/runtime/... ./internal/online/... ./internal/simclock/... ./internal/obs/... ./internal/tp/... ./internal/assigner/... ./internal/lp/... ./internal/ilp/... ./internal/chaos/... ./internal/failover/... ./internal/core/retry/... ./internal/dist/... ./internal/journal/... ./internal/serve/... ./internal/nn/... ./internal/quality/... ./internal/indicator/...

# Stress lane: the dist tests that pin an interleaving — where a worker
# death lands, the frame budget, a conn drop at the end of a run or
# mid-handshake, and the coordinator core's failed-send, answer-before-
# close and welcome-before-attach orders — ten times each at GOMAXPROCS
# 2 and 4. scripts/verify.sh runs this target, so the test list lives
# only here.
STRESS_DIST := TestWorkerDeathLanding|TestFrameBudget|TestConnDropAtRunEnd|TestHandshakeConnDropRace|TestFailedSendKeepsAnswers|TestAwaitReturnsAnswerBeforeClose|TestWelcomePrecedesAttach
.PHONY: stress-dist
stress-dist:
	$(GO) test -count=10 -cpu 2,4 -run '^($(STRESS_DIST))$$' ./internal/dist

# Coverage gate: aggregate statement coverage over ./internal/... must not
# drop below COVER_FLOOR (percent, measured when the gate was introduced;
# raise it when coverage improves, never lower it to make a PR pass).
COVER_FLOOR := 89.2
.PHONY: cover
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v got="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (got + 0 < floor + 0) { printf "cover: %.1f%% is below the %.1f%% floor\n", got, floor; exit 1 } \
		printf "cover: %.1f%% (floor %.1f%%)\n", got, floor }'

# Fuzz smoke: ~70 s across the quantizer fuzz lanes (Theorem 1 error
# envelope + group-wise packing invariants), the HTTP front door's
# request-decode + SSE framing lane, the coordinator journal's
# replay/decode lane (mutated journals must fail typed, never panic), and
# the DP kernel's capped pass against the oracle kernel.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzQuantDequantRoundTrip -fuzztime=15s ./internal/quant
	$(GO) test -run='^$$' -fuzz=FuzzGroupwisePack -fuzztime=15s ./internal/quant
	$(GO) test -run='^$$' -fuzz=FuzzCompletionRequest -fuzztime=15s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=15s ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzDPMatchesOracle -fuzztime=10s ./internal/assigner

# Benchmark smoke: every benchmark under internal/ runs once, so the
# BenchmarkReplan / BenchmarkColdOptimize rows CHANGES.md cites stay
# runnable. Timings are not gated; rerun with -benchtime 2s to measure.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Everything CI runs.
.PHONY: verify-all
verify-all: verify verify-race stress-dist bench-smoke fuzz-smoke
