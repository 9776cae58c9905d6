// Command benchgate maintains and enforces the committed hot-path
// benchmark trajectory (BENCH_hotpath.json).  The file is JSON-lines:
// one entry per PR/pass, oldest first, each entry carrying the metrics
// printed by the benchmark's BENCH_HOTPATH line plus provenance
// (git SHA, date, pass label) injected here.  Keeping history in the
// file — instead of overwriting a single point — makes the perf
// trajectory reviewable in the diff of every PR.
//
// The -measured file holds one BENCH JSON object per line, one per
// benchmark sample (`go test -count N`).  Both modes fold them into one
// entry: every numeric field is the median over the samples, and
// "samples" records N.
//
// Modes:
//
//	benchgate -mode append -file BENCH_hotpath.json -measured line.json \
//	    -sha abc1234 -date 2026-08-07 -pass pass1-eventsim
//	    Appends {provenance + metrics} to the trajectory.  If the last
//	    entry has the same sha and pass label it is replaced instead,
//	    so re-running `make bench-json` at one commit stays idempotent.
//
//	benchgate -mode gate -baseline BENCH_hotpath.json -measured line.json \
//	    [-tolerance 0.25] [-alloc-tolerance 0.10]
//	    Compares a fresh measurement against the newest committed entry:
//	    cells_per_sec may not drop more than the (noise-tolerant) time
//	    tolerance, and allocs_per_cell — which is deterministic, not
//	    hardware-dependent — may not grow more than the strict allocation
//	    tolerance.  Exits 1 on regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		mode     = flag.String("mode", "", "append | gate")
		file     = flag.String("file", "", "trajectory file to append to (append mode)")
		baseline = flag.String("baseline", "", "committed trajectory to gate against (gate mode)")
		measured = flag.String("measured", "", "file holding one BENCH JSON object per sample")
		sha      = flag.String("sha", "", "git SHA to record (append mode)")
		date     = flag.String("date", "", "date to record (append mode)")
		pass     = flag.String("pass", "", "optional pass label to record (append mode)")
		tol      = flag.Float64("tolerance", 0.25, "allowed fractional drop in cells_per_sec (timing is hardware noise)")
		allocTol = flag.Float64("alloc-tolerance", 0.10, "allowed fractional growth in allocs_per_cell (deterministic)")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "append":
		err = appendEntry(*file, *measured, *sha, *date, *pass)
	case "gate":
		err = gate(*baseline, *measured, *tol, *allocTol)
	default:
		err = fmt.Errorf("unknown -mode %q (want append or gate)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// readMeasured reads one BENCH JSON object per non-empty line of path
// and folds the samples into one object (see medianObject).
func readMeasured(path string) (map[string]any, error) {
	ls, err := lines(path)
	if err != nil {
		return nil, err
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("%s: no BENCH samples", path)
	}
	samples := make([]map[string]any, len(ls))
	for i, l := range ls {
		if err := json.Unmarshal([]byte(l), &samples[i]); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
	}
	return medianObject(samples), nil
}

// medianObject folds benchmark samples into one entry: each numeric
// field of the first sample becomes its median over the samples that
// carry it, other fields keep the first sample's value, and "samples"
// records how many were folded.
func medianObject(samples []map[string]any) map[string]any {
	out := make(map[string]any, len(samples[0])+1)
	for k, v := range samples[0] {
		if _, ok := v.(float64); !ok {
			out[k] = v
			continue
		}
		var xs []float64
		for _, o := range samples {
			if x, ok := num(o, k); ok {
				xs = append(xs, x)
			}
		}
		out[k] = median(xs)
	}
	out["samples"] = len(samples)
	return out
}

// median reports the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// lines returns the trajectory file's non-empty lines (oldest first);
// a missing file is an empty trajectory.
func lines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out, nil
}

func appendEntry(file, measured, sha, date, pass string) error {
	if file == "" || measured == "" {
		return fmt.Errorf("append mode needs -file and -measured")
	}
	obj, err := readMeasured(measured)
	if err != nil {
		return err
	}
	if sha != "" {
		obj["sha"] = sha
	}
	if date != "" {
		obj["date"] = date
	}
	if pass != "" {
		obj["pass"] = pass
	}
	entry, err := json.Marshal(obj) // map marshalling sorts keys: stable diffs
	if err != nil {
		return err
	}
	hist, err := lines(file)
	if err != nil {
		return err
	}
	if n := len(hist); n > 0 {
		var last map[string]any
		if json.Unmarshal([]byte(hist[n-1]), &last) == nil &&
			last["sha"] == obj["sha"] && last["pass"] == obj["pass"] {
			hist = hist[:n-1] // same commit re-measured: replace, don't stack
		}
	}
	hist = append(hist, string(entry))
	if err := os.WriteFile(file, []byte(strings.Join(hist, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchgate: %s now has %d entries; appended %s\n", file, len(hist), entry)
	return nil
}

func num(obj map[string]any, key string) (float64, bool) {
	v, ok := obj[key].(float64)
	return v, ok
}

func gate(baseline, measured string, tol, allocTol float64) error {
	if baseline == "" || measured == "" {
		return fmt.Errorf("gate mode needs -baseline and -measured")
	}
	hist, err := lines(baseline)
	if err != nil {
		return err
	}
	if len(hist) == 0 {
		return fmt.Errorf("%s has no committed entries to gate against", baseline)
	}
	var base map[string]any
	if err := json.Unmarshal([]byte(hist[len(hist)-1]), &base); err != nil {
		return fmt.Errorf("%s last entry: %w", baseline, err)
	}
	meas, err := readMeasured(measured)
	if err != nil {
		return err
	}

	failed := false
	if baseCPS, ok := num(base, "cells_per_sec"); ok {
		measCPS, ok := num(meas, "cells_per_sec")
		if !ok {
			return fmt.Errorf("measurement lacks cells_per_sec")
		}
		floor := baseCPS * (1 - tol)
		verdict := "ok"
		if measCPS < floor {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("benchgate: cells_per_sec %.2f vs baseline %.2f (floor %.2f, tolerance %.0f%%): %s\n",
			measCPS, baseCPS, floor, tol*100, verdict)
	}
	if baseAllocs, ok := num(base, "allocs_per_cell"); ok {
		measAllocs, ok := num(meas, "allocs_per_cell")
		if !ok {
			return fmt.Errorf("measurement lacks allocs_per_cell")
		}
		ceil := baseAllocs * (1 + allocTol)
		verdict := "ok"
		if measAllocs > ceil {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("benchgate: allocs_per_cell %.0f vs baseline %.0f (ceiling %.0f, tolerance %.0f%%): %s\n",
			measAllocs, baseAllocs, ceil, allocTol*100, verdict)
	}
	if failed {
		return fmt.Errorf("benchmark regression against %s", baseline)
	}
	return nil
}
