GO ?= go

# staticcheck version `make lint` and CI both use, so local and CI lint agree.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: build test test-short test-race vet vet-perfbench lint install-staticcheck check audit chaos bench bench-engine bench-smoke bench-profile bench-history test-backends test-backends-short golden golden-update serve-test fuzz-request load-test chaos-serve clean

build:
	$(GO) build ./...

# Full suite, including the per-workload simulations and the idle-skip
# bit-identity differential (several minutes).
test:
	$(GO) test ./...

# Unit tests only: skips the full-simulation tests.
test-short:
	$(GO) test -short ./...

# Race detector over the short suite (covers the parallel sweep runner).
test-race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# perfbench is a separate Go module, so the root `go build ./...` and
# `go vet ./...` never compile it: vet and test it on its own.
vet-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Style gate: gofmt cleanliness, go vet, and staticcheck when it is on PATH
# (CI installs it; locally the target degrades gracefully).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (make install-staticcheck)"; \
	fi

# Install the pinned staticcheck (the version CI runs) into GOBIN.
install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Pre-PR gate: build everything, vet (the perfbench module too), run the
# short suite, then the race detector over the packages with concurrent test
# harnesses. Run this (plus `make audit` when the memory system or protocol
# changed) before sending a change out.
check: build vet vet-perfbench test-short test-backends-short
	$(GO) test -race -short -timeout 20m ./internal/sim ./internal/noc ./internal/timing
	$(GO) test -race -short -run '^TestChaosServe$$' -timeout 15m ./cmd/ndpserve

# Invariant audit: every Table 1 workload under baseline, naive-NDP, and
# dynamic-NDP with all runtime invariant checkers enabled (internal/audit),
# cross-checked bit-for-bit against the reference interpreter. Also exposed
# as `ndpsim -audit`.
audit:
	$(GO) test ./internal/sim -run Audit -v

# Chaos differential suite: every Table 1 workload under every pinned fault
# schedule (killed link, failed NSU, frozen vault, lossy mesh) plus seeded
# random schedules, all three modes, memory cross-checked bit-for-bit against
# the fault-free reference interpreter. The schedules and seeds are pinned in
# internal/sim/chaos.go, so the matrix is fully deterministic. The default
# `make test` runs a representative subset; this is the exhaustive matrix.
chaos:
	NDPGPU_CHAOS_FULL=1 $(GO) test ./internal/sim -run 'Chaos|FaultNoOp' -timeout 45m -v

# Macro benchmark: one full VADD simulation per iteration (see BENCH_pr1.json
# for the recorded before/after numbers).
bench:
	$(GO) test -run '^$$' -bench BenchmarkSingleRunVADD -benchmem -benchtime 5x .

# Micro benchmark: engine edge dispatch, idle skipping on/off.
bench-engine:
	$(GO) test -run '^$$' -bench BenchmarkEngineIdleSkip -benchmem ./internal/timing

# Architecture-backend suite: the placement/translation policy unit tests plus
# the oracle-differential and memory-invariance legs for every non-default
# backend (coda, coda-ft, ndpage). The short form runs the VADD subset; CI's
# backends job runs the full matrix.
test-backends:
	$(GO) test -v ./internal/backend
	$(GO) test -run '^TestBackend' -timeout 30m -v ./internal/sim

test-backends-short:
	$(GO) test -short ./internal/backend
	$(GO) test -short -run '^TestBackend' -timeout 10m ./internal/sim

# Golden-digest regression gate: recompute the per-workload x mode statistic
# digests (deterministic) and diff them against the committed file. Any drift
# is a behavior change — either a bug or an intended change that needs
# `make golden-update` plus a PR note explaining the new numbers.
golden:
	$(GO) run ./cmd/ndpreport golden -out /tmp/ndpgpu_golden.json
	$(GO) run ./cmd/ndpreport diff testdata/golden_digests.json /tmp/ndpgpu_golden.json

# Refresh the committed golden digests after an intended behavior change.
golden-update:
	$(GO) run ./cmd/ndpreport golden -out testdata/golden_digests.json
	@echo "testdata/golden_digests.json refreshed; commit it with an explanation."

# Service conformance suite under the race detector: scheduler semantics
# (memoization, coalescing, fairness, backpressure, drain-on-shutdown), the
# HTTP surface, the fuzz corpus as regression inputs, and the short load
# phases. The full golden matrix (TestServedDigestsMatchGolden) is excluded
# by -short; `make test` runs it.
serve-test:
	$(GO) test -race -short -timeout 15m ./internal/serve ./cmd/ndpserve
	$(GO) test -race -short -run 'TestUseServerRoundTrip|TestSweepServerFlag' -timeout 5m ./internal/experiments ./cmd/ndpsweep

# Fuzz the request parser beyond its seeds: a request's config patch is the
# one place a client sets any configuration field. A crasher the fuzzer
# finds lands in internal/serve/testdata/fuzz; commit it with the fix.
fuzz-request:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRunRequest$$' -fuzztime 30s ./internal/serve

# Load-test harness over the full HTTP stack (stub simulator): >=1000
# concurrent in-flight requests with bounded memory, crisp 429 backpressure,
# sustained throughput, and the >=100x memoized-replay speedup. Writes the
# throughput summary CI uploads as an artifact.
load-test:
	NDPSERVE_LOAD_OUT=$(CURDIR)/load_test_summary.json $(GO) test -run '^TestLoadServe$$' -timeout 15m -v ./internal/serve
	@echo "load_test_summary.json written"

# Kill-and-restart chaos harness over the real server binary: concurrent load
# of real simulations, SIGKILL at jittered points, restart on the same -data
# dir, then assert the recovery invariants — every acknowledged result is
# served from the journal cache byte-identical to the committed golden digests
# with zero re-simulation, injected panics/hangs return structured 500s and
# quarantine their key after K failures, and SIGTERM still drains cleanly.
# Writes the recovery summary CI uploads as an artifact. `make check` runs the
# one-round -short form.
chaos-serve:
	NDPSERVE_CHAOS_OUT=$(CURDIR)/chaos_serve_summary.json $(GO) test -race -run '^TestChaosServe$$' -timeout 20m -v ./cmd/ndpserve
	@echo "chaos_serve_summary.json written"

# One-iteration benchmark smoke with the ±25% wall-clock gate and the +10%
# allocs/op gate against the recorded reference (fails only on regressions; a
# faster host just warns). On a host whose fingerprint differs from the
# reference the wall-clock gate is report-only — see `ndpreport benchgate`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRunVADD$$' -benchmem -benchtime 1x . | tee bench_smoke.txt
	$(GO) run ./cmd/ndpreport benchgate -bench bench_smoke.txt -ref BENCH_pr9.json

# CPU + allocation profiles of the macro benchmark, for chasing wake-wheel
# and allocator regressions. View with `go tool pprof bench_cpu.pprof`.
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRunVADD$$' -benchmem -benchtime 3x \
		-cpuprofile bench_cpu.pprof -memprofile bench_mem.pprof .
	@echo "wrote bench_cpu.pprof bench_mem.pprof (go tool pprof <file>)"

# Trend table across every recorded BENCH_*.json.
bench-history:
	$(GO) run ./cmd/ndpreport bench-history

clean:
	$(GO) clean ./...
