#!/usr/bin/env bash
# CI bench gate: measure the reduced Fig. 4 hot-path benchmark and
# compare it against the newest committed BENCH_hotpath.json entry.
#
# Protocol (noise mitigation on shared CI runners):
#   1. one warmup run, discarded (page cache, JIT-less but still: first
#      run pays binary load + first-GC sizing);
#   2. a measured run of 5 samples, parsed from
#      their BENCH_HOTPATH lines, which benchgate folds into per-field
#      medians;
#   3. benchgate compares: cpu_cells_per_sec (cells per second of
#      process CPU time; wall-clock cells_per_sec, with a note, when the
#      committed entry predates the field) with a noise-tolerant floor
#      (BENCH_GATE_TOLERANCE, default 0.25), allocs_per_cell with a
#      strict 10% ceiling
#      (allocation counts are deterministic, so 10% means a real
#      regression, per the hot-path contract in DESIGN §14), and
#      bytes_per_cell, when the committed entry records it, with a 25%
#      ceiling;
#   4. on failure, re-run once more with pprof enabled and leave the
#      CPU/alloc profiles in bench-artifacts/ for CI to upload.
set -euo pipefail

GO="${GO:-go}"
TOL="${BENCH_GATE_TOLERANCE:-0.25}"
ALLOC_TOL="${BENCH_GATE_ALLOC_TOLERANCE:-0.10}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

bench() {
    "$GO" test -bench 'BenchmarkHotpathCells' -benchtime 1x -run '^$' "$@" ./internal/benchcheck
}

echo "bench-gate: warmup run"
bench > /dev/null

echo "bench-gate: measured run (5 samples)"
bench -count 5 | tee "$OUT/bench.out"
sed -n 's/.*BENCH_HOTPATH //p' "$OUT/bench.out" > "$OUT/measured.json"
[ -s "$OUT/measured.json" ] || { echo "bench-gate: no BENCH_HOTPATH line captured" >&2; exit 1; }

if "$GO" run ./scripts/benchgate -mode gate -baseline BENCH_hotpath.json \
        -measured "$OUT/measured.json" -tolerance "$TOL" -alloc-tolerance "$ALLOC_TOL"; then
    echo "bench-gate: PASS"
else
    echo "bench-gate: FAIL — capturing pprof profiles into bench-artifacts/" >&2
    mkdir -p bench-artifacts
    cp "$OUT/measured.json" bench-artifacts/measured.json
    bench -cpuprofile bench-artifacts/cpu.pprof -memprofile bench-artifacts/mem.pprof \
        > bench-artifacts/profiled.out || true
    exit 1
fi
