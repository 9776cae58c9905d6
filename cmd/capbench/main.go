// Command capbench regenerates every table and figure of the paper's
// evaluation on the simulated platforms.
//
// Usage:
//
//	capbench <experiment> [flags]
//
// Experiments:
//
//	fig1     single-GPU GEMM cap sweep (efficiency / perf / energy)
//	table1   best cap per architecture and precision
//	table2   the experiment configurations (sizes, tilings, P levels)
//	fig3     plan sweeps, double precision, all platforms, GEMM+POTRF
//	fig4     plan sweeps, single precision
//	fig5     per-device energy split on 24-Intel-2-V100, double
//	fig6     efficiency gain from capping CPU1 at 48 % TDP (V100 node)
//	fig7     efficiency across tile sizes, all platforms
//	grid     the full Table II × plan grid through the parallel executor
//	autoplan automatic plan selection under a slowdown budget (extension)
//	budget   node power budget -> per-GPU cap allocation (extension)
//	ablation scheduler / calibration / transfer-model ablations (extension)
//	all      everything above in paper order
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obsreport"
	"repro/internal/sigctx"
	"repro/internal/telemetry"
	"repro/internal/telemetry/agg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	opts, err := parseOpts(fs, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capbench: %v\n", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the pool context: in-flight cells finish and
	// commit to the checkpoint journal, queued cells never start, and the
	// interrupt path below reports what survived instead of discarding it.
	// A second signal during that wind-down (e.g. a wedged journal flush)
	// force-exits 130 immediately instead of being swallowed.
	ctx, stop := sigctx.New(context.Background(), nil)
	defer stop()
	opts.ctx = ctx

	// "report" is a pure reader: it renders the HTML sweep report from
	// a finished (or crashed) run's artifacts and must never open a
	// journal for writing or start a sweep.
	if cmd == "report" {
		if rerr := runReport(opts); rerr != nil {
			fmt.Fprintf(os.Stderr, "capbench report: %v\n", rerr)
			os.Exit(1)
		}
		return
	}

	// -submit hands the experiment to a capserved coordinator instead of
	// running it in-process; everything below (journal, telemetry, agg)
	// is the service's job there, not this client's.
	if opts.submit != "" {
		if serr := runSubmit(opts, cmd); serr != nil {
			fmt.Fprintf(os.Stderr, "capbench %s: %v\n", cmd, serr)
			os.Exit(1)
		}
		return
	}

	// The event bus underlies /events, /progress and the events.jsonl
	// log; it exists whenever something will consume it.
	if opts.metricsAddr != "" || opts.aggDir != "" {
		opts.events = obs.NewBus()
	}

	if opts.checkpoint != "" {
		m := ckpt.Manifest{Identity: checkpointIdentity(cmd, opts), RootSeed: opts.seed}
		var jerr error
		if opts.resume {
			opts.journal, jerr = ckpt.Resume(opts.checkpoint, m)
		} else {
			opts.journal, jerr = ckpt.Create(opts.checkpoint, m)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "capbench: %v\n", jerr)
			os.Exit(1)
		}
		if opts.resume {
			fmt.Fprintf(os.Stderr, "capbench: resuming from %s: %d cell(s) already complete\n",
				opts.checkpoint, opts.journal.Done())
		}
	}

	var srv *telemetry.Server
	var stopRuntimeMetrics func()
	if opts.metricsAddr != "" {
		opts.telem = telemetry.NewCollector()
		opts.telem.AttachBus(opts.events)
		opts.telem.SetRunInfo(runID(cmd), ckpt.HashIdentity(checkpointIdentity(cmd, opts)))
		tracker := obs.NewTracker(opts.events)
		opts.telem.AttachProgress(tracker)
		tracker.Start(ctx, 1024)
		stopRuntimeMetrics = telemetry.StartRuntimeMetrics(opts.telem.Registry, 0)
		var err error
		srv, err = telemetry.Serve(opts.metricsAddr, opts.telem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /timeseries.json, /decisions.json, /surface, /progress and /events on http://%s\n", srv.Addr())
	}

	var eventLog *obs.FileSink
	if opts.events != nil && opts.aggDir != "" {
		if aerr := os.MkdirAll(opts.aggDir, 0o755); aerr != nil {
			fmt.Fprintf(os.Stderr, "capbench: -agg-dir: %v\n", aerr)
			os.Exit(1)
		}
		var serr error
		eventLog, serr = obs.NewFileSink(filepath.Join(opts.aggDir, eventsFile), opts.events)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "capbench: events log: %v\n", serr)
			os.Exit(1)
		}
	}

	if opts.stallProfile > 0 {
		opts.profiler = obs.NewProfiler(opts.profileDir, 0)
	}

	if opts.aggDir != "" {
		if aerr := os.MkdirAll(opts.aggDir, 0o755); aerr != nil {
			fmt.Fprintf(os.Stderr, "capbench: -agg-dir: %v\n", aerr)
			os.Exit(1)
		}
		sink, aerr := agg.NewJSONLSink(filepath.Join(opts.aggDir, agg.StreamFile))
		if aerr != nil {
			fmt.Fprintf(os.Stderr, "capbench: -agg-dir: %v\n", aerr)
			os.Exit(1)
		}
		var cfg agg.ExporterConfig
		if opts.telem != nil {
			cfg.OnDrop = opts.telem.ObserveDroppedRollups
		}
		opts.agg = agg.New(sink, cfg)
		if opts.telem != nil {
			// /surface answers mid-sweep: the surface merges cells as pool
			// workers complete them.
			opts.telem.SetSurface(opts.agg.Surface())
		}
	}

	run := experimentFunc(cmd)
	if run == nil {
		usage()
		os.Exit(2)
	}
	err = run(opts)
	if err == nil && opts.telem != nil {
		err = telemetrySummary(opts)
	}
	if opts.agg != nil {
		// Sync the stream and write the canonical artifacts even on
		// interrupt: the surface of the cells that did complete is exactly
		// what a resume continues from.
		if aerr := opts.agg.Close(); aerr != nil && err == nil {
			err = aerr
		}
		if aerr := opts.agg.WriteArtifacts(opts.aggDir); aerr != nil && err == nil {
			err = aerr
		}
		fmt.Fprintf(os.Stderr, "agg: %d cell(s) aggregated into %s (%d rollup(s) dropped by the stream)\n",
			opts.agg.Surface().Cells(), opts.aggDir, opts.agg.Dropped())
	}
	if srv != nil {
		if opts.hold > 0 {
			fmt.Fprintf(os.Stderr, "telemetry: holding endpoint open for %v (scrape http://%s/metrics)\n", opts.hold, srv.Addr())
			time.Sleep(opts.hold)
		}
		srv.Close()
	}
	if stopRuntimeMetrics != nil {
		stopRuntimeMetrics()
	}
	if eventLog != nil {
		if eerr := eventLog.Close(); eerr != nil && err == nil {
			err = eerr
		}
		if n := eventLog.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "events: %d event(s) dropped by the file sink\n", n)
		}
	}
	if opts.profiler != nil && opts.profiler.Captured() > 0 {
		fmt.Fprintf(os.Stderr, "profiles: %d stall capture(s) in %s (%d skipped while busy)\n",
			opts.profiler.Captured(), opts.profileDir, opts.profiler.Skipped())
	}
	if opts.journal != nil {
		// Every record was fsynced at commit; Close flushes the file and
		// ends this process's writes before we report or exit.
		if cerr := opts.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if ctx.Err() != nil {
		if opts.journal != nil {
			fmt.Fprintf(os.Stderr,
				"capbench: interrupted — %d cell(s) checkpointed in %s; re-run with -resume to continue\n",
				opts.journal.Done(), opts.checkpoint)
		} else {
			fmt.Fprintln(os.Stderr,
				"capbench: interrupted — no -checkpoint directory, partial results discarded")
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "capbench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// checkpointIdentity pins a checkpoint journal to everything about this
// invocation that changes cell results.  -parallel is deliberately
// absent: resuming at a different pool size is byte-identical by the
// executor's determinism contract.
func checkpointIdentity(cmd string, o *options) string {
	return fmt.Sprintf("capbench|%s|platform=%s|scale=%d|scheduler=%s|seed=%d|faults=%s|trace=%v|budget=%v",
		cmd, o.platform, o.scale, o.scheduler, o.seed, o.faults, o.traceDir != "", o.budget)
}

// telemetrySummary folds the sampler and decision log into the report
// output once the experiments finish.
func telemetrySummary(o *options) error {
	if s := o.telem.Sampler(); s != nil {
		if err := emit(o, s.SummaryTable()); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.telem.Decisions.Total() > 0 {
		if err := emit(o, o.telem.Decisions.SummaryTable()); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// options carries the shared flags.
type options struct {
	platform     string
	csv          bool
	scale        int
	budget       float64
	scheduler    string
	outDir       string
	traceDir     string
	metricsAddr  string
	hold         time.Duration
	parallel     int
	seed         int64
	faults       faults.Spec
	checkpoint   string
	resume       bool
	cellTimeout  time.Duration
	aggDir       string
	stallProfile time.Duration
	profileDir   string
	reportOut    string
	submit       string
	// submitTimeout bounds the whole -submit lifecycle (post + watch);
	// 0 watches until the job finishes or the user detaches.
	submitTimeout time.Duration
	// tenant labels the -submit job for the coordinator's per-tenant
	// admission quota.
	tenant string
	// faultsRaw is the unparsed -faults spec, forwarded verbatim in a
	// -submit job (the service's workers parse it themselves).
	faultsRaw string

	// telem is non-nil when -metrics-addr is set; every experiment
	// threads it through core so the endpoint reflects the live run.
	telem *telemetry.Collector
	// ctx is cancelled by SIGINT/SIGTERM; journal is the open checkpoint
	// when -checkpoint is set.  Both flow into the pool via popt.
	ctx     context.Context
	journal *ckpt.Journal
	// agg is the aggregation tier when -agg-dir is set: every completed
	// cell rolls up into its surface (served at /surface) and appends to
	// <agg-dir>/stream.jsonl.
	agg *agg.Aggregator
	// events is the observability bus, created whenever -metrics-addr or
	// -agg-dir will consume it; profiler captures stall-triggered CPU
	// profiles when -stall-profile is set.
	events   *obs.Bus
	profiler *obs.Profiler
}

// parseOpts parses the shared flags; an error is a usage error.
func parseOpts(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.platform, "platform", "all",
		"platform name (24-Intel-2-V100, 64-AMD-2-A100, 32-AMD-4-A100) or \"all\"")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.scale, "scale", 1, "divide matrix orders by this factor for quicker runs")
	fs.Float64Var(&o.budget, "budget", 15, "autoplan: max slowdown in percent")
	fs.StringVar(&o.scheduler, "scheduler", "", "override the dmdas scheduler")
	fs.StringVar(&o.outDir, "out", "", "also write each table as a CSV file into this directory")
	fs.StringVar(&o.traceDir, "trace-dir", "",
		"write per-cell span-trace artifacts (Chrome trace, folded stacks, analyzer report) into this directory")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live telemetry on this address (/metrics, /timeseries.json, /decisions.json)")
	fs.DurationVar(&o.hold, "hold", 0, "keep the telemetry endpoint open this long after the experiments finish")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(),
		"worker-pool size for sweep cells (1 = serial; output is byte-identical at any value)")
	fs.Int64Var(&o.seed, "seed", 0, "root seed for the grid experiment (per-cell seeds are derived from it)")
	fs.StringVar(&o.checkpoint, "checkpoint", "",
		"journal completed sweep cells into this directory so an interrupted run can be resumed")
	fs.BoolVar(&o.resume, "resume", false,
		"resume from the -checkpoint directory, skipping cells whose results are already journalled")
	fs.DurationVar(&o.cellTimeout, "cell-timeout", 0,
		"watchdog: abandon a sweep cell that completes no task for this much wall-clock time (0 = off)")
	fs.StringVar(&o.aggDir, "agg-dir", "",
		"aggregate completed cells into this directory (surface.json, rollups.jsonl, stream.jsonl) and serve /surface when -metrics-addr is set")
	fs.DurationVar(&o.stallProfile, "stall-profile", 0,
		"capture an on-demand CPU profile the first time a cell completes no task for this much wall-clock time (0 = off)")
	fs.StringVar(&o.profileDir, "profile-dir", "profiles",
		"directory stall-triggered CPU profiles are written into")
	fs.StringVar(&o.reportOut, "report-out", "sweep-report.html",
		"report: output path for the HTML sweep report")
	fs.StringVar(&o.submit, "submit", "",
		"submit the experiment to a capserved coordinator at this URL instead of running it in-process (grid, fig3, fig4)")
	fs.DurationVar(&o.submitTimeout, "submit-timeout", 0,
		"give up on a -submit job after this long — a dead or wedged coordinator fails the command instead of being polled forever (0 = wait indefinitely)")
	fs.StringVar(&o.tenant, "tenant", "",
		"tenant label on a -submit job (the coordinator enforces a per-tenant queue quota)")
	faultSpec := fs.String("faults", "",
		"deterministic fault injection spec, e.g. capfail=0.3,clamp=0.1,throttle=1,dropout=1,taskfail=0.02,retries=3 (seeded from -seed)")
	fs.Parse(args)
	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	o.faults = spec
	o.faultsRaw = *faultSpec
	if o.scale < 1 {
		o.scale = 1
	}
	if o.parallel < 1 {
		o.parallel = 1
	}
	if o.resume && o.checkpoint == "" {
		return nil, errors.New("-resume requires -checkpoint DIR")
	}
	if o.hold > 0 && o.metricsAddr == "" {
		return nil, errors.New("-hold requires -metrics-addr (there is no telemetry endpoint to hold open)")
	}
	if o.submit != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(localOnlyFlags, f.Name) {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			return nil, fmt.Errorf("-submit runs the sweep on the service, which ignores %s", strings.Join(local, ", "))
		}
	}
	return o, nil
}

// localOnlyFlags name what only an in-process run honours: under
// -submit the service owns journals, traces, aggregation and telemetry,
// and the client prints no tables.
var localOnlyFlags = []string{"trace-dir", "checkpoint", "resume", "agg-dir", "metrics-addr",
	"out", "csv", "cell-timeout", "stall-profile"}

// popt builds the executor options: the -parallel pool size plus, when
// fanning out, a progress line on stderr (stdout stays clean for the
// tables, which render only after the pool drains).
func (o *options) popt() core.ParallelOptions {
	po := core.ParallelOptions{
		Workers:     o.parallel,
		Context:     o.ctx,
		Checkpoint:  o.journal,
		CellTimeout: o.cellTimeout,
	}
	if o.agg != nil {
		// Guarded assignment: a typed-nil *Aggregator in the interface
		// field would defeat the executor's nil check.
		po.Rollups = o.agg
	}
	po.Events = o.events
	if o.profiler != nil {
		po.SoftTimeout = o.stallProfile
		prof := o.profiler
		po.OnCellStall = func(cell string, idle time.Duration) {
			fmt.Fprintf(os.Stderr, "\ncapbench: cell stalled %v, capturing CPU profile: %s\n", idle.Round(time.Second), cell)
			// The capture blocks for its sampling window; run it off the
			// watchdog goroutine so the hard deadline keeps ticking.
			go func() {
				if path, err := prof.CaptureCPU(cell); err != nil {
					fmt.Fprintf(os.Stderr, "capbench: stall profile: %v\n", err)
				} else if path != "" {
					fmt.Fprintf(os.Stderr, "capbench: stall profile written: %s\n", path)
				}
			}()
		}
	}
	if o.parallel > 1 {
		po.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcapbench: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return po
}

func usage() {
	fmt.Fprintln(os.Stderr, strings.TrimSpace(`
usage: capbench <experiment> [flags]
experiments: fig1 table1 table2 fig3 fig4 fig5 fig6 fig7 grid autoplan ablation budget all
             report (render an HTML sweep report from -agg-dir / -checkpoint artifacts)
flags: -platform <name|all> -csv -scale N -budget PCT -scheduler NAME -out DIR
       -trace-dir DIR -parallel N -seed N -faults SPEC -metrics-addr HOST:PORT -hold DURATION
       -checkpoint DIR -resume -cell-timeout DURATION -agg-dir DIR
       -stall-profile DURATION -profile-dir DIR -report-out FILE -submit URL`))
}

// eventsFile is the JSONL event log written into -agg-dir.
const eventsFile = "events.jsonl"

// runID builds a per-invocation identity for capsim_run_info.  Unlike
// everything inside the simulation, this is allowed to read the wall
// clock: it labels exports, it never touches results.
func runID(cmd string) string {
	return fmt.Sprintf("%s-%d-%d", cmd, time.Now().Unix(), os.Getpid())
}

// runReport renders the self-contained HTML sweep report from a run's
// on-disk artifacts: -agg-dir (rollups + event log) and, when given,
// the -checkpoint journal.
func runReport(o *options) error {
	if o.aggDir == "" {
		return fmt.Errorf("report needs -agg-dir DIR (the directory a sweep aggregated into)")
	}
	in := obsreport.Inputs{Rollups: filepath.Join(o.aggDir, agg.RollupsFile)}
	if events := filepath.Join(o.aggDir, eventsFile); fileExists(events) {
		in.Events = events
	}
	if o.checkpoint != "" {
		in.Journal = filepath.Join(o.checkpoint, "journal.jsonl")
	}
	if err := obsreport.Write(o.reportOut, in); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capbench: sweep report written to %s\n", o.reportOut)
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// experiments lists every experiment in paper order, the order "all"
// runs them in.
var experiments = []struct {
	name string
	fn   func(*options) error
}{
	{"fig1", runFig1},
	{"table1", runTable1},
	{"table2", runTable2},
	{"fig3", func(o *options) error { return runFig34(o, false) }},
	{"fig4", func(o *options) error { return runFig34(o, true) }},
	{"fig5", runFig5},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"grid", runGrid},
	{"autoplan", runAutoPlan},
	{"ablation", runAblation},
	{"budget", runBudget},
}

// experimentFunc resolves an experiment name, "all" included; nil when
// the name is unknown.
func experimentFunc(cmd string) func(*options) error {
	if cmd == "all" {
		return runAll
	}
	for _, e := range experiments {
		if e.name == cmd {
			return e.fn
		}
	}
	return nil
}

func runAll(o *options) error {
	for _, s := range experiments {
		fmt.Printf("==== %s ====\n", s.name)
		if err := s.fn(o); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println()
	}
	return nil
}
