#!/usr/bin/env bash
# Coordinator-kill smoke test: the crash-safety contract of the durable
# job queue (DESIGN §17), exercised with real processes and a hostile
# wire.  A capserved service with two supervised workers — every
# coordinator call running through the seeded wire fault injector
# (drops, dropped replies, duplicated deliveries, 503 bursts) — accepts
# three jobs and a fourth that is cancelled while queued, then the
# coordinator and its whole fleet die by SIGKILL mid-sweep.  A restart
# over the same directories must recover every job from the state
# journal, finish the remainder, and produce surface.json and
# digests.json byte-identical to uninterrupted serial baselines; the
# cancelled job must never produce artifacts or a report.
#
# The kill lands at a data-driven moment (first cells committed, queue
# still holding jobs), so on a fast machine the active job may already
# be sealed — the byte-identity and cancellation gates still hold; the
# resume path is additionally pinned by TestCoordinatorCrashRecovery.
set -euo pipefail

GO=${GO:-go}
LEASE=(-lease-ttl 1s -worker-timeout 2s -steal-after 2s)
NETFAULTS='drop=0.05,dropreply=0.05,dup=0.1,err=0.05'
PLATFORM=24-Intel-2-V100

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; pkill -9 -f "$work/capworker" 2>/dev/null || true; rm -rf "$work"' EXIT

$GO build -o "$work/" ./cmd/capserved ./cmd/capworker

# Uninterrupted serial baselines, one per job.
echo "coordkill-smoke: serial baselines (fig4, grid seed 11, grid seed 22)" >&2
"$work/capserved" -experiment fig4 -platform $PLATFORM -scale 2 -serial \
    -agg-dir "$work/baseA" 2> "$work/baseA.err"
"$work/capserved" -experiment grid -platform $PLATFORM -scale 2 -seed 11 -serial \
    -agg-dir "$work/baseB" 2> "$work/baseB.err"
"$work/capserved" -experiment grid -platform $PLATFORM -scale 2 -seed 22 -serial \
    -agg-dir "$work/baseC" 2> "$work/baseC.err"

start_service() { # $1 = stderr log
    : > "$1" # exists before the first read below, however late the child opens it
    "$work/capserved" "${LEASE[@]}" -workers 2 \
        -net-faults "$NETFAULTS" -net-seed 7 \
        -checkpoint "$work/ck" -agg-dir "$work/svc" 2> "$1" &
    coord=$!
    local url=""
    for _ in $(seq 1 100); do
        url=$(sed -n 's/^capserved: serving .* on \(http:[^ ]*\)$/\1/p' "$1" | head -1)
        [[ -n "$url" ]] && break
        sleep 0.1
    done
    if [[ -z "$url" ]]; then
        echo "coordkill-smoke: FAIL — service never announced its address" >&2
        cat "$1" >&2
        exit 1
    fi
    base=$url
}

submit() { # $1 = JSON spec; prints the job id
    local reply
    reply=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$1" "$base/v1/submit")
    local id
    id=$(sed -n 's/.*"job_id":"\([0-9a-f]*\)".*/\1/p' <<< "$reply")
    if [[ -z "$id" ]]; then
        echo "coordkill-smoke: FAIL — submit reply without job_id: $reply" >&2
        exit 1
    fi
    echo "$id"
}

job_field() { # $1 = job id, $2 = pattern to grep in the status doc
    curl -sf "$base/v1/job/$1" | grep -o "$2" || true
}

echo "coordkill-smoke: life 1 — service up, wire faults $NETFAULTS" >&2
start_service "$work/svc1.err"

idA=$(submit "{\"experiment\":\"fig4\",\"platform\":\"$PLATFORM\",\"scale\":2,\"seed\":0,\"tenant\":\"acme\"}")
idB=$(submit "{\"experiment\":\"grid\",\"platform\":\"$PLATFORM\",\"scale\":2,\"seed\":11,\"tenant\":\"acme\"}")
idC=$(submit "{\"experiment\":\"grid\",\"platform\":\"$PLATFORM\",\"scale\":2,\"seed\":22,\"tenant\":\"globex\"}")
idD=$(submit "{\"name\":\"cancelme\",\"experiment\":\"grid\",\"platform\":\"$PLATFORM\",\"scale\":2,\"seed\":33}")
echo "coordkill-smoke: submitted A=$idA B=$idB C=$idC D=$idD" >&2

# The liveness/readiness split and the queue gauge are live.
curl -sf "$base/healthz/live" | grep -q '"alive"' || {
    echo "coordkill-smoke: FAIL — /healthz/live unhealthy" >&2; exit 1; }
curl -sf "$base/healthz/ready" | grep -q '"ready":true' || {
    echo "coordkill-smoke: FAIL — /healthz/ready not ready with queue room" >&2; exit 1; }
# Plain grep, not grep -q: /metrics spans several writes, and grep -q
# exiting at the first match would fail curl's next write (EPIPE) and,
# under pipefail, the check with it.
curl -sf "$base/metrics" | grep '^capsim_sweepd_queue_depth' > /dev/null || {
    echo "coordkill-smoke: FAIL — queue depth gauge missing from /metrics" >&2; exit 1; }

# Cancel D while it is still queued: it must never touch the filesystem.
curl -sf -X DELETE "$base/v1/job/$idD" | grep -q '"cancelled":true' || {
    echo "coordkill-smoke: FAIL — cancel of queued job not acknowledged" >&2; exit 1; }

# Wait until the sweep is demonstrably in flight, then kill everything
# the hard way: coordinator first, then the orphaned workers.
for _ in $(seq 1 200); do
    [[ -n "$(job_field "$idA" '"cells_done":[1-9]')" ]] && break
    sleep 0.05
done
echo "coordkill-smoke: SIGKILL coordinator (pid $coord) and workers mid-sweep" >&2
kill -9 "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true
pkill -9 -f "$work/capworker" 2>/dev/null || true

echo "coordkill-smoke: life 2 — restart over the same directories" >&2
start_service "$work/svc2.err"
grep -q 'recovered [0-9]* job(s) from the state journal' "$work/svc2.err" || {
    echo "coordkill-smoke: FAIL — restart did not recover from the state journal" >&2
    cat "$work/svc2.err" >&2
    exit 1
}

# Every surviving job must reach done; the cancelled one stays a tombstone.
for id in "$idA" "$idB" "$idC"; do
    ok=""
    for _ in $(seq 1 600); do
        if [[ -n "$(job_field "$id" '"state":"done"')" ]]; then ok=1; break; fi
        sleep 0.1
    done
    if [[ -z "$ok" ]]; then
        echo "coordkill-smoke: FAIL — job $id not done after restart" >&2
        curl -s "$base/v1/job/$id" >&2 || true
        tail -20 "$work/svc2.err" >&2
        exit 1
    fi
done
job_field "$idD" '"state":"cancelled"' | grep -q cancelled || {
    echo "coordkill-smoke: FAIL — cancelled job lost its tombstone across the restart" >&2
    exit 1
}

kill -TERM "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true

# Byte-identity against the uninterrupted baselines.
declare -A basedir=([A]="$work/baseA/fig4-$idA" [B]="$work/baseB/grid-$idB" [C]="$work/baseC/grid-$idC")
declare -A svcdir=([A]="$work/svc/fig4-$idA" [B]="$work/svc/grid-$idB" [C]="$work/svc/grid-$idC")
for j in A B C; do
    for f in surface.json digests.json; do
        if ! cmp -s "${basedir[$j]}/$f" "${svcdir[$j]}/$f"; then
            echo "coordkill-smoke: FAIL — job $j $f differs from the uninterrupted baseline" >&2
            diff "${basedir[$j]}/$f" "${svcdir[$j]}/$f" | head -20 >&2
            exit 1
        fi
    done
done

# The cancelled job left nothing behind: no artifact directory, no
# cell journal, no report.
if compgen -G "$work/svc/cancelme-*" > /dev/null || compgen -G "$work/ck/cancelme-*" > /dev/null; then
    echo "coordkill-smoke: FAIL — cancelled job left artifacts or journals on disk" >&2
    ls "$work/svc" "$work/ck" >&2
    exit 1
fi

resumed=$(sed -n 's/^sweepd: job [0-9a-f]*: resumed \([0-9]*\) cell(s).*/\1/p' "$work/svc2.err" | head -1)
echo "coordkill-smoke: OK — recovered queue finished byte-identical (resumed ${resumed:-0} cell(s)); cancelled job left no trace" >&2
