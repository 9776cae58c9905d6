# Developer entry points. `make check` is the full gate: build, vet and
# the race-enabled test suite (the telemetry exporter reads the
# simulation's data structures from HTTP goroutines, so -race is load-
# bearing, not decoration).

GO ?= go

.PHONY: all build vet test check bench bench-json bench-gate fuzz-short chaos-short resume-short agg-short obs-short shard-short coordkill-short results-check trace-demo examples-smoke clean

# How long each fuzz target runs under fuzz-short (CI uses the default).
FUZZTIME ?= 10s

# How many seeded fault schedules chaos-short runs (the in-package
# default is 50; CI trims it because the fleet runs under -race).
CHAOS_SCHEDULES ?= 10

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Provenance stamped into the benchmark trajectories.  Overridable so
# CI (or a reproducer) can pin them; BENCH_PASS labels which
# optimization pass a BENCH_hotpath.json entry belongs to.
# `describe --always --dirty` marks entries measured with uncommitted
# changes: a pass's entry is measured and committed together, so it
# reads "<parent sha>-dirty" — the code is the parent plus the diff of
# the very commit carrying the entry.  The pass label is the stable key.
GIT_SHA ?= $(shell git describe --always --dirty 2>/dev/null || git rev-parse --short HEAD)
BENCH_DATE ?= $(shell date -u +%F)
BENCH_PASS ?= $(GIT_SHA)

# Machine-readable benchmark trajectory: run the serial hot-path
# benchmark 5 times, then append the per-field median of its
# BENCH_HOTPATH JSON lines — stamped with git SHA, date, pass label and
# sample count — to the committed JSONL trajectory (BENCH_hotpath.json).
# Appending (not overwriting) keeps the perf history reviewable in every
# PR's diff; benchgate replaces the last entry when re-run at the same
# commit, so the target is idempotent.
# End-to-end throughput is measured by perfbench (BENCHMARK.json).
# The sed match is unanchored: with -count > 1, go test prints the next
# sample's benchmark name ahead of its BENCH_HOTPATH line.
bench-json:
	$(GO) test -bench 'BenchmarkHotpathCells' -benchtime 1x -count 5 -run '^$$' ./internal/benchcheck \
	    | sed -n 's/.*BENCH_HOTPATH //p' > /tmp/bench_hotpath_line.json
	@test -s /tmp/bench_hotpath_line.json || { echo "bench-json: no BENCH_HOTPATH line captured" >&2; exit 1; }
	$(GO) run ./scripts/benchgate -mode append -file BENCH_hotpath.json \
	    -measured /tmp/bench_hotpath_line.json -sha $(GIT_SHA) -date $(BENCH_DATE) -pass "$(BENCH_PASS)"

# Hot-path regression gate (the CI bench-gate job): warmup + measured
# run of the reduced Fig. 4 benchmark, compared against the newest
# committed BENCH_hotpath.json entry.  Noise-tolerant on CPU time
# (BENCH_GATE_TOLERANCE), strict on allocation counts, 25 % on bytes
# per cell; drops pprof profiles in bench-artifacts/ when it fails.
bench-gate:
	GO="$(GO)" bash scripts/bench_gate.sh

# Short coverage-guided fuzz pass over the fuzz targets: the plan
# parser (input validation), the event engine (ordering/determinism
# under adversarial schedules), the grouped dm-family Push (identity
# with the per-worker reference under fuzzed operation schedules), the
# dmdas ready queue (pop order identity with a plain-slice oracle), the
# sweep service's result-batch intake (adversarial wire bodies) and
# every worker- and client-facing protocol path (undecodable bodies
# answered 4xx, the active job's table keeps its total), the
# result codec's decoder (never panics; every accepted payload
# re-encodes to itself), the platform's operating-point memo (bit
# identity with the device models under fuzzed cap, throttle and
# death sequences) and the checkpoint journal loader (torn tails,
# corrupt digests and two writers' files against a reference replay
# and done-wins merge).  Go runs one fuzz target per invocation.  The
# intake's inputs are JSON with base64 payloads, the codec's seeds
# are traced results of several KB and every journal input is a pair
# of files on disk, all slow to minimise, so their minimisation is
# capped to leave the time for fuzzing.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/powercap
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrdering$$' -fuzztime $(FUZZTIME) ./internal/eventsim
	$(GO) test -run '^$$' -fuzz '^FuzzGroupedPush$$' -fuzztime $(FUZZTIME) ./internal/starpu
	$(GO) test -run '^$$' -fuzz '^FuzzReadyQueue$$' -fuzztime $(FUZZTIME) ./internal/starpu
	$(GO) test -run '^$$' -fuzz '^FuzzResultBatch$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sweepd
	$(GO) test -run '^$$' -fuzz '^FuzzProtoBodies$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sweepd
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOperatingPointMemo$$' -fuzztime $(FUZZTIME) ./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzRecordLine$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/ckpt

# Race-enabled chaos fleet: seeded fault schedules through the full
# core.Run path, checking completion-or-DegradedRun, attribution
# closure and the parallel determinism contract with faults enabled.
chaos-short:
	$(GO) test -race -run 'Chaos' ./internal/core/ -chaos.schedules=$(CHAOS_SCHEDULES)

# Kill-and-resume smoke: SIGKILL a checkpointed grid mid-sweep, resume
# at a different -parallel, and diff against a clean run byte-for-byte
# (the crash-safety contract of DESIGN §12).
resume-short:
	GO="$(GO)" bash scripts/resume_smoke.sh

# Aggregation smoke: the rollup surface must be byte-identical across
# worker counts and across a SIGKILL + -resume (DESIGN §13).
agg-short:
	GO="$(GO)" bash scripts/agg_smoke.sh

# Observability smoke: a live sweep with -metrics-addr must serve the
# /progress schema, the run-identity and runtime self-metric families,
# a working /events SSE stream, persist events.jsonl, and render the
# HTML sweep report (DESIGN §15).
obs-short:
	GO="$(GO)" bash scripts/obs_smoke.sh

# Sharded-sweep smoke: capserved + 3 supervised capworkers with a
# SIGKILL and a SIGSTOP/CONT injected mid-sweep must produce
# surface.json and digests.json byte-identical to a serial run, and a
# poisoned cell must quarantine within the kill budget without
# stalling the rest (DESIGN §16).
shard-short:
	GO="$(GO)" bash scripts/shard_smoke.sh

# Coordinator-kill smoke: a capserved service with a durable job queue
# behind seeded wire faults takes four jobs (one cancelled while
# queued), dies by SIGKILL mid-sweep and is restarted over the same
# directories.  Every job must resume from the state journal and end
# byte-identical to uninterrupted baselines; the cancelled job must
# leave no artifacts (DESIGN §17).
coordkill-short:
	GO="$(GO)" bash scripts/coordkill_smoke.sh

# Results snapshot gate: results_full.txt is the checked-in output of
# every paper experiment; any change to the simulation's output shows
# up here as a byte difference (regenerate the file when the change is
# intended).
results-check:
	$(GO) run ./cmd/capbench all | cmp - results_full.txt

# Span-tracer smoke test: analyze a tiny POTRF under an unbalanced
# plan and export a Chrome trace.  The analyze subcommand re-reads the
# written JSON and fails if it does not decode as a Chrome event array,
# so this target is the trace-format gate CI runs.
trace-demo:
	mkdir -p /tmp/capsim-trace-demo
	$(GO) run ./cmd/schedtrace analyze -platform 24-Intel-2-V100 -op potrf \
		-scale 10 -plan HB -chrome /tmp/capsim-trace-demo/potrf.json \
		-folded /tmp/capsim-trace-demo/potrf.folded
	$(GO) run ./cmd/schedtrace -platform 24-Intel-2-V100 -op potrf \
		-scale 10 -plan HB -model -telemetry \
		-chrome /tmp/capsim-trace-demo/plain.json \
		-gantt /tmp/capsim-trace-demo/gantt.csv \
		-power /tmp/capsim-trace-demo/power.csv \
		-decisions /tmp/capsim-trace-demo/decisions.json

# Examples smoke: run every program under examples/ and fail on the
# first non-zero exit.  cholesky, solver and mixedprecision exit
# non-zero when a numeric check fails, and dynamiccap drives the
# dynamic cap controller end to end; CI otherwise only builds them.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

clean:
	$(GO) clean ./...
