package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/spantrace"
	"repro/internal/telemetry/agg"
	"repro/internal/trace"
)

// runAnalyze implements the analyze subcommand: run one configuration
// with the span tracer attached and print the causal analysis —
// critical path with its power-state composition, per-worker idle
// breakdown, top energy task types and the per-device energy
// reconciliation (the per-run view behind the paper's Fig. 5 split).
// Chrome traces written here are parsed back before reporting success,
// so an invalid artifact fails the command (the CI smoke test relies
// on this).
func runAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var cell cellFlags
	cell.register(fs)
	topK := fs.Int("top", 10, "rows in the top-energy task-type table")
	chromePath := fs.String("chrome", "", "write the Chrome trace (with causal flow arrows) to this path")
	foldedPath := fs.String("folded", "", "write folded energy stacks (flamegraph input) to this path")
	seed := fs.Int64("seed", 0, "seed for randomised schedulers")
	rollupPath := fs.String("rollup", "",
		"write the run's cell rollup (scalars + task-level quantile sketches) as one JSON line to this path")
	faultSpec := fs.String("faults", "",
		"deterministic fault injection spec, e.g. capfail=0.3,dropout=1 (seeded from -seed)")
	fs.Parse(args)
	injected, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	cfg, err := cell.config()
	if err != nil {
		return err
	}
	cfg.Seed, cfg.Trace, cfg.Faults = *seed, true, injected

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n\n", describe(cfg))
	if f := res.Faults; f != nil {
		st := f.Injected
		fmt.Fprintf(out, "faults: spec %s — %d injected (capfail %d, clamp %d, throttle %d, dropout %d, task %d); cap retries %d, task retries %d\n",
			f.Spec, st.Total(), st.CapFailures, st.CapClamps, st.Throttles, st.Dropouts, st.TaskFaults,
			f.CapRetries, f.TaskRetries)
		if d := res.Degraded; d != nil {
			fmt.Fprintf(out, "degraded: %d worker(s) evicted, surviving plan %s\n", len(d.Evictions), d.Plan)
		}
		fmt.Fprintln(out)
	}
	if err := spantrace.Analyze(res.Trace, *topK).Write(out); err != nil {
		return err
	}

	if *chromePath != "" {
		if err := writeFile(*chromePath, func(w io.Writer) error { return spantrace.WriteChrome(w, res.Trace) }); err != nil {
			return err
		}
		n, err := validateChrome(*chromePath)
		if err != nil {
			return fmt.Errorf("chrome trace %s failed parse-back: %w", *chromePath, err)
		}
		fmt.Fprintf(out, "\nchrome trace written to %s (%d events, parse-back OK)\n", *chromePath, n)
	}
	if *foldedPath != "" {
		if err := writeFile(*foldedPath, func(w io.Writer) error { return spantrace.WriteFolded(w, res.Trace) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "folded stacks written to %s\n", *foldedPath)
	}
	if *rollupPath != "" {
		// The single-cell counterpart of capbench's -agg-dir stream:
		// write the one rollup through the same sink the sweep uses, so
		// the line format matches and downstream mergers need one parser.
		sink, err := agg.NewJSONLSink(*rollupPath)
		if err != nil {
			return err
		}
		sink.Append(core.BuildRollup(cfg, res))
		if err := sink.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "cell rollup written to %s\n", *rollupPath)
	}
	return nil
}

// validateChrome re-reads a written trace and decodes it as a Chrome
// event array, returning the event count.
func validateChrome(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("no events")
	}
	return len(events), nil
}
