# Tier-1 verification and developer targets. Every CI step invokes one
# of these targets (never a raw command), so the local chain and CI can
# never drift: what `make check` passes, CI passes.
#
#   make tier1   build + vet + full test suite + race check of the
#                concurrent packages (the sweep engine and its users)
#   make check   tier1 + lint — the pre-merge gate
#   make lint    gofmt -l check, go vet, staticcheck (skipped with a
#                note when staticcheck is not installed; CI installs it)
#   make race    only the scoped race check
#   make bench   hot-loop benchmarks, -benchmem -count=5 (benchstat-ready)
#   make bench-core  the core timing-loop suite alone, single repetition;
#                BENCH_CORE_CPUPROFILE=x.pprof also collects a CPU profile
#   make bench-emu  functional fast-forward + snapshot benchmarks
#                (judged by bench-gate against BENCH_emu.json)
#   make bench-figures  one pass over the table/figure benchmarks
#   make bench-gate  the statistical performance-regression gate: run the
#                core/emu/sampling suites with repetitions and compare
#                against BENCH_core.json / BENCH_emu.json /
#                BENCH_sampling.json (DESIGN.md §8.5); non-zero exit on
#                a significant regression beyond threshold
#   make bench-gate-update  re-record those baselines (after an
#                intentional perf change; see EXPERIMENTS.md)
#   make bench-gate-full    the nightly gate: double repetitions
#   make fuzz    run of the core's random-flush fuzzer, then of the
#                emulator's trace-loop fuzzer, then of the serve layer's
#                job-spec decoder fuzzer, then of the emulator's memory
#                against an eager reference, each for FUZZTIME (30s)
#   make serve-smoke  end-to-end smoke of the fxad daemon over real
#                HTTP: build, serve, submit, stream, cache-hit, SIGTERM
#   make cluster-smoke  multi-shard smoke of the sharded fabric: 3 worker
#                shards + 1 router on loopback, cache federation, a
#                SIGKILLed shard mid-sweep, bit-identical results
#   make cluster-chaos  the nightly chaos loop: randomized seeded
#                shard kills (CHAOS_ITERS/CHAOS_SEED) plus a
#                router-restart case; logs kept in CHAOS_WORK
#   make ci-sanity  fail if any CI workflow invokes a make target that
#                does not exist in this Makefile
#   make surface  print the two size figures ROADMAP.md tracks: non-test
#                Go lines (outside benchmark/) and exported top-level
#                symbols; prints only, gates nothing
#   make bench-smoke  the end-to-end benchmark's own checks: vet and test
#                the benchmark module, then run each workload for 2 s and
#                fail unless every op is correct (benchmark/NOTES.md)
#   make sampling-validate  the sampling differential-validation suite
#                under -race (CI coverage vs full-detailed truth,
#                warm-up efficacy, observation-only warm-up marks,
#                worker-count determinism, cancellation promptness;
#                DESIGN.md §8.7). Also runs inside tier1 via `race`.
#   make sampling-long  the nightly 100M-instruction paper-parity
#                sampled run (EXPERIMENTS.md records its error bars)

GO ?= go

# Packages with real concurrency: the sweep engine, the sampling harness
# that parallelizes detailed windows through it, the emulator whose
# copy-on-write clones execute on other goroutines, and the serving
# fabric that multiplexes concurrent tenants onto the sweep path. The
# shared pipeline stage library rides along because every core built on
# it runs on sweep worker goroutines, and the consistent-hash ring is
# read concurrently by every router pump. The workload package shares
# one pointer-chase table per proxy across every goroutine that builds
# or runs it. The mem package's line-array pool is shared by every sweep
# worker and both shards of a serve process; its test runs four cells at
# once, which also shares the emulator's page-chunk pool. (The root
# package's multi-worker determinism tests run under race in race-full.)
RACE_PKGS = ./internal/sweep ./internal/sampling ./internal/emu ./internal/serve ./internal/pipeline ./internal/ring ./internal/workload ./internal/mem

# Perfgate knobs (override on the command line, e.g.
# `make bench-gate PERFGATE_BENCHOUT=bench-raw.txt`).
PERFGATE_COUNT ?= 5
PERFGATE_THRESHOLD ?= 1.10
PERFGATE_BENCHOUT ?=
PERFGATE_FLAGS = -perfgate -count $(PERFGATE_COUNT) -threshold $(PERFGATE_THRESHOLD)
ifneq ($(PERFGATE_BENCHOUT),)
PERFGATE_FLAGS += -benchout $(PERFGATE_BENCHOUT)
endif

# Fuzzing budget (nightly CI runs FUZZTIME=60s).
FUZZTIME ?= 30s

# Static analyzer; `make lint` skips it gracefully when absent so the
# target works on minimal toolchains, while CI always installs it.
STATICCHECK ?= staticcheck

.PHONY: tier1 check build vet test race race-full lint fmt-check \
	bench bench-core bench-emu bench-figures bench-gate bench-gate-full \
	bench-gate-update fuzz serve-smoke cluster-smoke cluster-chaos \
	ci-sanity surface sampling-validate sampling-long bench-smoke

# bench-core profiling knob: when set, the core suite also writes a CPU
# profile there (e.g. `make bench-core BENCH_CORE_CPUPROFILE=core.pprof`;
# inspect with `go tool pprof core.pprof`). Nightly CI sets it and
# uploads the rotated profiles as artifacts.
BENCH_CORE_CPUPROFILE ?=
BENCH_CORE_FLAGS =
ifneq ($(BENCH_CORE_CPUPROFILE),)
BENCH_CORE_FLAGS += -cpuprofile $(BENCH_CORE_CPUPROFILE)
endif

tier1: build vet test race

# check is the pre-merge gate: tier1 plus lint, named for CI muscle
# memory.
check: tier1 lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Heavier: also run the root determinism tests (full evaluation sweeps at
# several worker counts) under the race detector.
race-full: race
	$(GO) test -race -run 'TestParallel|TestEvaluationCache|TestFigureSweepsDeterministic' .

# Formatting is a gate, not a suggestion.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

lint: fmt-check vet
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) not found, skipping (CI installs it; go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Hot-loop benchmarks with allocation accounting. Five repetitions so
# `benchstat old.txt new.txt` gets a distribution; the ns/inst and
# allocs/op columns are the regression signals for the allocation
# discipline documented in DESIGN.md §8.2.
bench:
	$(GO) test -bench 'BenchmarkCore' -benchmem -count=5 -run '^$$' ./internal/core

# The detailed-timing-loop suite alone (hot loop, flush-heavy, and the
# memory-bound idle-skip regime), one repetition for quick iteration.
# Set BENCH_CORE_CPUPROFILE to also collect a CPU profile of the run.
bench-core:
	$(GO) test -bench '^BenchmarkCore' -benchmem -count=1 -run '^$$' \
		$(BENCH_CORE_FLAGS) ./internal/core

# Functional fast-forward and snapshot benchmarks (DESIGN.md §8.3).
# The live regression baseline is BENCH_emu.json (see bench-gate).
bench-emu:
	$(GO) test -bench 'BenchmarkEmu|BenchmarkMemoryClone|BenchmarkMachineClone' -benchmem -count=5 -run '^$$' ./internal/emu
	$(GO) test -bench 'BenchmarkSamplingEndToEnd' -benchmem -count=5 -run '^$$' ./internal/sampling

# One pass over the table/figure reproduction benchmarks (the original
# `make bench`).
bench-figures:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The statistical performance-regression gate (DESIGN.md §8.5): exits
# non-zero when any gated metric is both statistically significant
# (one-sided Mann-Whitney U) and worse than PERFGATE_THRESHOLD against
# the checked-in baselines. Noisy runners widen tolerances; they never
# flake the gate.
bench-gate:
	$(GO) run ./cmd/fxabench $(PERFGATE_FLAGS)

# Nightly variant: double repetitions for tighter distributions.
bench-gate-full:
	$(MAKE) bench-gate PERFGATE_COUNT=10

# Deliberate baseline refresh after an intentional performance change
# (document the why in EXPERIMENTS.md; the diff shows up in review).
bench-gate-update:
	$(GO) run ./cmd/fxabench -perfgate -update-baseline -count $(PERFGATE_COUNT)

# Runs of the native fuzzers, one after the other: random flush points in
# the core (the seed corpus — mid-IXU squash, LQ/SQ partial squash, MSHR
# exhaustion, RENO squash — always runs as part of `make test` via
# TestFuzzRandomFlush), then the emulator's block trace loop against Step,
# then raw submit bodies through fxad's job-spec decoder, validation and
# routing key, then sized reads, writes and clones of a demand-paged,
# read-through memory against one made resident up front (every seed
# corpus runs in `make test` too).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRandomFlush -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTraceMatchesStep$$' -fuzztime $(FUZZTIME) ./internal/emu
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzMemoryMatchesEager$$' -fuzztime $(FUZZTIME) ./internal/emu

# The sampling differential-validation suite (DESIGN.md §8.7) under the
# race detector: sampled CIs must cover full-detailed truth for every
# registered core kind, warm-up must monotonically shrink the cold-start
# gap, the warm-up mark must be observation-only, and the Summary must
# be bit-identical for any worker count. tier1 already runs the whole
# package under -race (RACE_PKGS); this named target is the direct
# handle for iterating on the suite.
sampling-validate:
	$(GO) test -race -run 'TestSampledCICoversDetailedRun|TestWarmup|TestSampling|TestSummaryDeterministicForAnyWorkers' ./internal/sampling

# The nightly 100M-instruction paper-parity sampled run: ten 1M-inst
# windows, each after an 8.9M skip and a 100k detailed warm-up — the
# paper's Section VI-A skip-then-measure methodology as a systematic
# schedule. Gated on the 95% CI half-width staying within 10% of the
# IPC estimate; EXPERIMENTS.md records the measured error bars.
sampling-long:
	FXA_SAMPLING_LONG=1 $(GO) test -v -run TestPaperParitySampledRun -timeout 30m ./internal/sampling

# End-to-end smoke of the built fxad binary: start it, walk a job
# through the HTTP API with curl, prove a resubmission hits the shared
# cache, and check SIGTERM drains to a clean exit 0.
serve-smoke:
	./scripts/serve_smoke.sh

# Multi-shard smoke of the sharded fabric: 3 worker shards with
# federated caches + 1 router on loopback ephemeral ports, a full
# evaluation sweep through the router with one shard SIGKILLed
# mid-flight, results asserted bit-identical to a local serial run, and
# the router's resubmission/mark-down counters checked.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Nightly chaos loop over the sharded fabric: CHAOS_ITERS sweeps each
# with a randomly timed, randomly chosen shard SIGKILL (seeded;
# reproduce with CHAOS_SEED=<seed from the log>), plus a router
# kill-and-restart case that must be served from the shards' caches.
cluster-chaos:
	./scripts/cluster_chaos.sh

# Workflow/Makefile drift gate: every `make <target>` in the CI
# workflows must exist here.
ci-sanity:
	./scripts/ci_sanity.sh

# The code-size figures of the ROADMAP north star: non-test Go lines of
# the main module, and exported top-level symbols as `go doc -short`
# lists them, summed over every package. CI prints them in the lint job
# so each PR's log records both; nothing is compared against them.
surface:
	@echo "surface: non-test Go lines: $$(git ls-files '*.go' ':!:*_test.go' ':!:benchmark/' | xargs cat | wc -l)"
	@echo "surface: exported symbols: $$(for p in $$($(GO) list ./...); do $(GO) doc -short $$p; done | wc -l)"

# The end-to-end benchmark (benchmark/, BENCHMARK.json) checked the way it
# is run: vet and unit tests of its module, then a 2-second untraced run
# of each workload, whose last output line must report every op correct
# and none failed. The reference digests make any moved result byte a
# failed op.
BENCH_WORKLOADS = eval-matrix sampled-span serve-routed

bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	@for w in $(BENCH_WORKLOADS); do \
		last="$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1)"; \
		echo "bench-smoke $$w: $$last"; \
		case "$$last" in \
		*'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-smoke: $$w reported failed ops" >&2; exit 1 ;; \
		esac; \
	done
