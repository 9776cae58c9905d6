#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload once per seed, in a fresh process each time, and
reports for each end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, beside the metric's bound from BENCHMARK.json.  Run it from
the repository root:

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/steadiness.json

A spread should stay below a third of its bound (setup_s excepted: only
its median has to agree between two sets of runs).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_ticks():
    """The machine's cumulative CPU ticks from /proc/stat (user ... steal)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0, c0 = time.monotonic(), cpu_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall, c1 = time.monotonic() - t0, cpu_ticks()
    # Steal: the share of CPU time the hypervisor gave to other guests.
    steal = None
    if c0 and c1:
        d = [b - a for a, b in zip(c0, c1)]
        steal = d[7] / max(1, sum(d))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    machine = next((l for l in lines if l.startswith("machine:")), "")
    return json.loads(lines[-1]), wall, steal, machine


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    worst = 0.0
    for wl in names:
        values, walls, steals, machine = {}, [], [], ""
        for seed in seeds:
            out, wall, steal, machine = run_once(bench, wl, seed, args.trace)
            if not out["correct"] or out["failed"]:
                sys.exit(f"{wl} seed {seed}: incorrect output {out}")
            walls.append(wall)
            steals.append(steal)
            for k, m in out["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        entry = {"machine": machine, "run_wall_s": [round(w, 2) for w in walls],
                 "steal_share": [None if s is None else round(s, 4) for s in steals], "metrics": {}}
        print(f"{wl}: {machine}; run wall {min(walls):.1f}-{max(walls):.1f} s; steal {entry['steal_share']}")
        for k in sorted(values):
            xs = values[k]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("inf")
            row = {"values": xs, "median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = ""
            if k in bounds:
                row["bound"] = bounds[k]
                if k != "setup_s":
                    worst = max(worst, spread / bounds[k])
                    flag = "ok" if spread < bounds[k] / 3 else "WIDE"
            entry["metrics"][k] = row
            print(f"  {k:<24} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {100*spread:6.2f}%  {flag}")
        report["workloads"][wl] = entry
    print(f"worst spread / bound: {worst:.2f} (a third is {1/3:.2f})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
