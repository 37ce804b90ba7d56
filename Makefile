GO ?= go
TRACE_OUT ?= trace.json
FUZZTIME ?= 10s
COVER_FLOOR ?= 80
CHAOS_SEEDS ?= 8
CHAOS_FAULTS ?= drop=0.02,stuck=0.01,glitch=0.01,jitter=0.1,meterdrop=0.05,nodedrop=0.15

FLEET_FUZZTIME ?= 30s
DIST_FUZZTIME ?= 30s
METER_FUZZTIME ?= 30s

.PHONY: build test vet nodebench-vet fmt-check race race-obs check bench trace repro fuzz-smoke cover-check chaos interrupt vuln serve loadcheck obs-serve-check fleet-check dist-check meter-check loc-delta

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# nodebench/ is a module of its own, so the root vet and build skip it;
# vet it separately so a change to the packages it drives cannot break
# the benchmark unnoticed.
nodebench-vet:
	cd nodebench && $(GO) vet ./...

# Fail when any Go file is not gofmt-formatted, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Non-test Go lines added and removed since BASE (working tree against
# the ref, so uncommitted edits count), and the net, for CHANGES.md.
# Usage: make loc-delta BASE=<ref>
loc-delta:
	@test -n "$(BASE)" || { echo "usage: make loc-delta BASE=<ref>"; exit 2; }
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' | \
	  awk '{a += $$1; r += $$2} END {printf "non-test Go lines: +%d -%d net %+d\n", a, r, a - r}'

race:
	$(GO) test -race ./...

# The observability package carries the lock-free metrics and the
# ring-buffer tracer; run it under the race detector on its own so the
# gate stays meaningful even if the full race target is trimmed later.
race-obs:
	$(GO) test -race ./internal/obs/...

# Smoke-run the fuzz targets guarding the numeric core (sample-size
# planning, confidence intervals) and the trace parser/gap-tolerant
# integration against gappy and NaN-laden inputs. go test accepts one
# -fuzz target per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/power
	$(GO) test -run='^$$' -fuzz=FuzzTolerantEnergy -fuzztime=$(FUZZTIME) ./internal/power
	$(GO) test -run='^$$' -fuzz=FuzzPlanSampleSize -fuzztime=$(FUZZTIME) ./internal/sampling
	$(GO) test -run='^$$' -fuzz=FuzzMeanCI -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/checkpoint

# Coverage floor for the fault-injection layer and the power core it
# hardens: these packages carry the never-a-silent-wrong-answer
# guarantees, so their tests must stay comprehensive.
cover-check:
	@for pkg in ./internal/faults ./internal/power; do \
	  pct=$$($(GO) test -count=1 -cover $$pkg | awk '{for(i=1;i<=NF;i++) if ($$i ~ /%/) {gsub("%","",$$i); print $$i}}'); \
	  echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p+0 >= f)}' || { echo "FAIL: $$pkg below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done

# The chaos gate: the harness invariants under the race detector, then
# the chaos command replaying the reference schedule across seeds.
chaos:
	$(GO) test -race -count=1 ./internal/faults/...
	$(GO) run ./cmd/chaos -seeds $(CHAOS_SEEDS) -faults "$(CHAOS_FAULTS)"

# The interrupt/resume gate: the resumetest harness (randomized seeded
# cancel points, resume, byte-identical final output), the checkpoint
# codec, and the signal/exit-code plumbing, all under the race detector,
# plus the end-to-end SIGINT test against the real repro binary.
interrupt:
	$(GO) test -race -count=1 ./internal/sampling/resumetest ./internal/checkpoint ./internal/cli
	$(GO) test -count=1 -run TestReproInterrupt .

# Scan the module against the Go vulnerability database. Needs network
# access to fetch the tool and the DB, so it is a CI gate rather than
# part of the offline `check` target.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# The full pre-commit gate: formatting, vet (of the root module and of
# the benchmark module), build, the test suite under the race detector,
# fuzz smoke, and the coverage floor.
check: fmt-check vet nodebench-vet build race-obs race fuzz-smoke cover-check

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The benchmark-regression gate. bench-baseline records the key benches
# (the ones the count-based bootstrap and the BTRS fast path are
# measured by, the ablation's odd-heavy robustness study included) into
# BENCH_BASELINE; bench-compare re-runs them and fails on a >15% ns/op
# regression against the committed baseline, and additionally locks in
# the rewrite's speedup against the pre-rewrite BENCH_4.json trajectory
# point (>=5x ns/op and >=10x B/op on the two bootstrap-bound benches).
# -count=6 with benchgate's min-merge filters scheduler noise.
BENCH_BASELINE ?= BENCH_15.json
BENCH_KEY = Table4$$|Figure3$$|Ablation$$|BootstrapReplicates$$|CoverageStudyReplicate$$
BENCH_COUNT ?= 6

.PHONY: bench-baseline bench-compare
bench-baseline:
	$(GO) test -run='^$$' -bench='$(BENCH_KEY)' -benchmem -count=$(BENCH_COUNT) . ./internal/sampling \
	  | $(GO) run ./cmd/benchgate -emit $(BENCH_BASELINE) \
	      -note "key-bench baseline after the table-driven BTRS fast path"

bench-compare:
	$(GO) test -run='^$$' -bench='$(BENCH_KEY)' -benchmem -count=$(BENCH_COUNT) . ./internal/sampling > /tmp/bench-current.txt
	$(GO) run ./cmd/benchgate -current /tmp/bench-current.txt -baseline $(BENCH_BASELINE) \
	  -max-regress 0.15 -require Table4,Figure3,Ablation,BootstrapReplicates,CoverageStudy
	$(GO) run ./cmd/benchgate -current /tmp/bench-current.txt -baseline BENCH_4.json \
	  -improve Figure3,BootstrapReplicates -min-speedup 5 -min-memratio 10

# Emit a Chrome trace from a real run and validate it with the same
# checker chrome://tracing and Perfetto rely on (JSON array of complete
# "X" events with sane timestamps).
trace:
	$(GO) run ./cmd/repro -exp table1 -trace-out $(TRACE_OUT) -manifest none
	NODEVAR_TRACE_FILE=$(abspath $(TRACE_OUT)) $(GO) test ./internal/obs -run TestValidateTraceFile -count=1

repro:
	$(GO) run ./cmd/repro -exp all

# Run the nodevard HTTP service locally (see README "Serving the
# methodology"). SERVE_ADDR=127.0.0.1:0 picks an ephemeral port.
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/nodevard -addr $(SERVE_ADDR)

# The streaming-fleet gate: the exact-sum/sketch/fleet/server suites and
# the batch-equivalence replay harness (8 seeds, randomized batch splits
# and duplicate re-sends, bit-identical moments/CI/recommendations) under
# the race detector, then the ingest-decoder and quantile-sketch fuzz
# targets. go test accepts one -fuzz target per invocation, hence the
# separate runs.
fleet-check:
	$(GO) test -race -count=1 ./internal/stats ./internal/fleet/... ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzIngestDecode -fuzztime=$(FLEET_FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzQuantileSketch -fuzztime=$(FLEET_FUZZTIME) ./internal/stats

# The distributed-serving gate: the dist package (ring, protocol,
# worker, frontend, net-fault chaos composition) under the race
# detector, the two-worker SIGKILL failover suite with byte-identity
# against a single-process reference across four seeds, the 1-vs-4
# worker loadgen scaling proof (>=2x completed studies, zero 5xx), and
# the job-envelope decoder fuzz target.
dist-check:
	$(GO) test -race -count=1 ./internal/dist/... ./internal/faults
	$(GO) test -race -count=1 -run TestDistFailoverE2E .
	NODEVAR_DIST_SCALE=1 $(GO) test -count=1 -run TestDistScalingGate .
	$(GO) test -run='^$$' -fuzz=FuzzJobDecode -fuzztime=$(DIST_FUZZTIME) ./internal/dist

# The meter-model gate: the instrument stack (drift-free sampling grid,
# quantizer rounding, windowed/OCC architectures), the workload layer it
# measures, and the methodology distortion comparison, all under the
# race detector, then the allocation gate on the pilot-phase reads
# (skipped under -race, so run again without it), one pass of the
# simulation-path benchmarks so they cannot rot, and the spec and model
# fuzz targets (arbitrary specs and windows: no panics, exact sample
# grids, bounded averages). go test accepts one -fuzz target per
# invocation, hence the separate runs.
meter-check:
	$(GO) test -race -count=1 ./internal/meter ./internal/workload ./internal/methodology ./internal/systems
	$(GO) test -race -count=1 -run 'TestMeters|TestDistortion' ./internal/server
	$(GO) test -count=1 -run 'TestReadsAllocateConstant' ./internal/meter
	$(GO) test -run '^$$' -bench 'MeterAveragePower|CompareMeters|MatrixOrderForRuntime' -benchtime 1x -benchmem ./internal/meter ./internal/methodology ./internal/hpl
	$(GO) test -run='^$$' -fuzz=FuzzMeterSpec -fuzztime=$(METER_FUZZTIME) ./internal/meter
	$(GO) test -run='^$$' -fuzz=FuzzMeterModels -fuzztime=$(METER_FUZZTIME) ./internal/meter

# The load-shedding/coalescing gate: ~120 concurrent identical coverage
# requests against a lowered concurrency limit, under the race detector.
# Exactly one study may execute; everything past the limit must shed
# with 429; all served bodies must be byte-identical.
loadcheck:
	$(GO) test -race -count=1 -run TestServerLoad ./internal/server

# The observability gate: the obs and server suites under the race
# detector (alloc gates self-skip there), then the zero-alloc assertions
# and the disabled-path/resolved-vec benchmarks without it — the serving
# hot path must stay allocation-free when tracing is off and handles are
# resolved.
obs-serve-check:
	$(GO) test -race -count=1 ./internal/obs/... ./internal/server/...
	$(GO) test -count=1 -run 'AllocFree|IsAllocFree' ./internal/obs
	$(GO) test -count=1 -run='^$$' -bench='BenchmarkDisabledSpan$$|BenchmarkDisabledCtxSpan$$|BenchmarkCounterVecResolvedInc$$' -benchtime=100x -benchmem ./internal/obs
