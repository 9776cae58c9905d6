// Command schedtrace runs one workload/plan configuration and dumps the
// scheduling internals: per-worker statistics, per-codelet counts, the
// critical path, the calibrated performance-model table and
// (optionally) Gantt, power and Chrome-trace exports.
//
// Usage:
//
//	schedtrace [-platform 32-AMD-4-A100] [-op gemm|potrf] [-precision double]
//	           [-plan HHBB] [-scheduler dmdas] [-scale 4] [-gantt out.csv]
//	           [-power power.csv] [-chrome trace.json] [-model]
//	           [-decisions decisions.json] [-telemetry]
//
// The analyze subcommand runs the cell through core.Run with the causal
// span tracer and prints the full analysis instead: critical path with
// per-power-state composition, per-worker idle breakdown, top energy
// task types and the per-device energy reconciliation, plus Chrome-trace
// (with causal flow arrows) and folded-stack exports:
//
//	schedtrace analyze [-platform ...] [-op ...] [-precision ...] [-plan HHBB]
//	                   [-scheduler dmdas] [-scale 4] [-top 10] [-seed 0]
//	                   [-faults capfail=0.3,dropout=1] [-chrome trace.json]
//	                   [-folded stacks.txt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/sigctx"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		if err := runAnalyze(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "schedtrace analyze:", err)
			os.Exit(1)
		}
		return
	}

	// First SIGINT/SIGTERM cuts the run short at the next interruptible
	// point (the -hold window); a second one force-exits 130 immediately,
	// even if an artifact write has wedged.
	ctx, stop := sigctx.New(context.Background(), nil)
	defer stop()

	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedtrace:", err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "schedtrace: interrupted")
		os.Exit(130)
	}
}

// cellFlags are the flags naming the one cell both modes run.
type cellFlags struct {
	platform, op, precision, plan, scheduler string
	scale                                    int
}

func (c *cellFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.platform, "platform", platform.FourA100Name, "platform name")
	fs.StringVar(&c.op, "op", "gemm", "gemm or potrf")
	fs.StringVar(&c.precision, "precision", "double", "single or double")
	fs.StringVar(&c.plan, "plan", "", "power plan (default all-H)")
	fs.StringVar(&c.scheduler, "scheduler", "dmdas", "scheduling policy")
	fs.IntVar(&c.scale, "scale", 4, "divide the Table II matrix order by this factor")
}

// config resolves the flags into the cell's run configuration: the
// Table II row, reduced by core.ScaleRow, on its platform under the plan.
func (c *cellFlags) config() (core.Config, error) {
	var op core.Operation
	switch c.op {
	case "gemm":
		op = core.GEMM
	case "potrf":
		op = core.POTRF
	default:
		return core.Config{}, fmt.Errorf("unknown op %q", c.op)
	}
	var p prec.Precision
	switch c.precision {
	case "double":
		p = prec.Double
	case "single":
		p = prec.Single
	default:
		return core.Config{}, fmt.Errorf("unknown precision %q", c.precision)
	}
	row, err := core.LookupTableII(c.platform, op, p)
	if err != nil {
		return core.Config{}, err
	}
	row = core.ScaleRow(row, c.scale)
	spec, err := platform.SpecByName(c.platform)
	if err != nil {
		return core.Config{}, err
	}
	planStr := c.plan
	if planStr == "" {
		planStr = strings.Repeat("H", spec.GPUCount)
	}
	plan, err := powercap.ParsePlan(planStr)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Spec: spec, Workload: row.Workload(), Plan: plan,
		BestFrac: row.BestFrac, Scheduler: c.scheduler}, nil
}

// describe is the one-line cell header both modes print first.
func describe(cfg core.Config) string {
	return fmt.Sprintf("%s on %s, plan %s, scheduler %s", cfg.Workload, cfg.Spec.Name,
		powercap.Describe(cfg.Plan, cfg.Spec.GPUArch, cfg.BestFrac), cfg.Scheduler)
}

// writeFile creates path, renders into it and closes it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// run is the plain mode: it runs the cell through core.Inspect, which
// keeps the runtime, the platform and the calibrated model inspectable
// after the run, and renders them.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedtrace", flag.ExitOnError)
	var cell cellFlags
	cell.register(fs)
	ganttPath := fs.String("gantt", "", "write a Gantt CSV to this path")
	powerPath := fs.String("power", "", "write a per-device power-timeline CSV to this path")
	chromePath := fs.String("chrome", "", "write a chrome://tracing / Perfetto JSON trace (with causal flow arrows) to this path")
	dumpModel := fs.Bool("model", false, "dump the calibrated performance-model table")
	decPath := fs.String("decisions", "", "write the scheduler decision log as JSON to this path")
	telem := fs.Bool("telemetry", false, "print the sampled power/energy and decision-log summaries")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live telemetry on this address (/metrics, /timeseries.json, /decisions.json, /debug/pprof/)")
	hold := fs.Duration("hold", 0, "keep the telemetry endpoint open this long after the run finishes")
	fs.Parse(args)
	if *hold > 0 && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "schedtrace: -hold requires -metrics-addr (there is no telemetry endpoint to hold open)")
		os.Exit(2)
	}
	cfg, err := cell.config()
	if err != nil {
		return err
	}
	// The span trace always records: the critical path and the Chrome
	// trace come from it.  Telemetry observes beside it when the decision
	// log, the summaries or the endpoint were asked for.
	cfg.Trace = true
	var collector *telemetry.Collector
	if *decPath != "" || *telem || *metricsAddr != "" {
		collector = telemetry.NewCollector()
		cfg.Telemetry = collector
	}
	var srv *telemetry.Server
	if *metricsAddr != "" {
		stopRuntime := telemetry.StartRuntimeMetrics(collector.Registry, 0)
		defer stopRuntime()
		srv, err = telemetry.Serve(*metricsAddr, collector)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
	}
	in, err := core.Inspect(cfg)
	if err != nil {
		return err
	}
	rt, plat := in.Runtime, in.Platform

	fmt.Fprintln(out, describe(cfg))
	fmt.Fprintf(out, "makespan %v, %v\n\n", in.Makespan, in.Rate)
	fmt.Fprint(out, in.Stats.String())
	cp := spantrace.Analyze(in.Trace, 0).CritPath
	cpuShare := 0.0
	if cp.Length > 0 {
		cpuShare = float64(cp.ByLevel["cpu"] / cp.Length)
	}
	fmt.Fprintf(out, "critical path: %d tasks, %v (%.0f%% of makespan), %.0f%% of it on CPUs\n",
		len(cp.Tasks), cp.Length, cp.Fraction*100, cpuShare*100)
	if rt.MemoryStats().Evictions > 0 {
		fmt.Fprintf(out, "device memory: %d evictions, %v written back\n",
			rt.MemoryStats().Evictions, rt.MemoryStats().WritebackBytes)
	}

	if *dumpModel {
		fmt.Fprintln(out, "\nperformance model:")
		fmt.Fprint(out, in.Model.Dump())
	}
	if *ganttPath != "" {
		if err := writeFile(*ganttPath, func(w io.Writer) error { return trace.WriteGantt(w, rt) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ngantt written to %s (%d tasks)\n", *ganttPath, len(rt.Tasks()))
	}
	if *powerPath != "" {
		if err := writeFile(*powerPath, func(w io.Writer) error { return trace.WritePowerTrace(w, plat.PowerTraces()) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "power timeline written to %s\n", *powerPath)
		// With traces available, the NVML thermal sensor works: report
		// the per-GPU temperature at the end of the run.
		n, _ := plat.NVML.DeviceGetCount()
		fmt.Fprint(out, "final temperatures:")
		for i := 0; i < n; i++ {
			h, _ := plat.NVML.DeviceGetHandleByIndex(i)
			if temp, ret := h.GetTemperature(); ret.Error() == nil {
				fmt.Fprintf(out, " GPU%d=%d°C", i, temp)
			}
		}
		fmt.Fprintln(out)
	}
	if *chromePath != "" {
		if err := writeFile(*chromePath, func(w io.Writer) error { return spantrace.WriteChrome(w, in.Trace) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chromePath)
	}
	if *telem {
		fmt.Fprintln(out)
		if s := collector.Sampler(); s != nil {
			s.SummaryTable().Write(out)
			fmt.Fprintln(out)
		}
		collector.Decisions.SummaryTable().Write(out)
	}
	if *decPath != "" {
		if err := writeFile(*decPath, collector.Decisions.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ndecision log written to %s (%d decisions, %d dropped)\n",
			*decPath, collector.Decisions.Total(), collector.Decisions.Dropped())
	}
	if srv != nil && *hold > 0 {
		fmt.Fprintf(os.Stderr, "telemetry: holding endpoint open for %v (scrape http://%s/metrics)\n", *hold, srv.Addr())
		select {
		case <-time.After(*hold):
		case <-ctx.Done():
		}
	}
	return nil
}
