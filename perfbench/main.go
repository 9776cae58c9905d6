// Command perfbench is the repository's benchmark: it runs one workload
// of the paper's plan sweep for a fixed time and prints the end-to-end
// metrics (with --trace 0) or the per-layer metrics (with --trace 1) as
// a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload grid-service --seed 3 --seconds 20 --trace 0
//
// The unit of latency is the job: one whole sweep.  Every job draws its
// own seed from the --seed argument, so no job repeats an earlier one.
// Each run checks its outputs outside the timed window and reports a
// run whose outputs are wrong as incorrect, with exit status 1.  See
// README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setUps is how many times a run sets up its workload; setup_s is the
// median of their CPU times, the first one counted from process start.
const setUps = 3

// workload is one benchmark scenario.
type workload interface {
	// setUp expands the inputs, starts what the jobs run on and runs one
	// untimed warm-up job.
	setUp(w *work) error
	// run runs timed jobs for about d, appending them to w.jobs; with
	// instrumented set it records spans and per-layer samples too.
	run(w *work, d time.Duration, instrumented bool) error
	// tearDown stops everything setUp started.
	tearDown()
}

var workloads = map[string]func() workload{
	"fig4-hotpath": func() workload { return &fig4{} },
	"grid-service": func() workload { return &gridService{} },
	"chaos-resume": func() workload { return &chaos{} },
}

// jobRecord is one timed job.
type jobRecord struct {
	seed  int64
	cells int
	// wall is the job's wall time; cpu the process CPU time it took (for
	// the service, the CPU time since the job ahead of it finished).
	wall, cpu    time.Duration
	instrumented bool
	probe        bool // a service probe job of another workload's traced run
	// check verifies the job's outputs against a reference, outside the
	// timed window, and returns how many of its cells are wrong, errored
	// or quarantined.
	check func() (failed int, err error)
}

// work is one run's shared state.
type work struct {
	workload string
	seeds    *jobSeeds
	dir      string // scratch directory, removed when the run ends
	traced   bool
	rec      *recorder
	layers   layerStats
	svc      serviceStats
	rt       runtimeStats
	jobs     []jobRecord

	// window is the timed wall clock, cpu the process CPU time and mallocs
	// the heap allocations in it: summed over the jobs for the serial
	// workloads, first submit to last completion for the service.
	window, cpu time.Duration
	mallocs     uint64
	// peakRSS is VmHWM once rssJobs timed jobs have finished (or at the
	// window's end), and doneJobs counts them.
	peakRSS  float64
	doneJobs int
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests during the window.
	stealPct float64
	// replayedJobs counts the instrumented jobs replayed layer by layer.
	replayedJobs int
	// postWindow runs after the timed window and before the checks (the
	// service's replays, which need the in-process results).
	postWindow []func() error
	failures   []string
}

// fail records a failure description (the first few are printed).
func (w *work) fail(format string, args ...any) {
	w.failures = append(w.failures, fmt.Sprintf(format, args...))
}

// rssJobs is how many timed jobs peak_rss_mb covers.  The coordinator
// keeps every job it has run, so the service's resident set grows with
// the number of jobs; counting a fixed number keeps the figure from
// following the machine's speed.
const rssJobs = 30

// jobDone counts a finished timed job and reads the peak resident set
// once rssJobs have finished.
func (w *work) jobDone() {
	w.doneJobs++
	if w.doneJobs == rssJobs {
		w.peakRSS = peakRSSMB()
	}
}

// runtimeStats is the Go runtime's and the obs bus's share of the
// instrumented jobs.
type runtimeStats struct {
	jobs, cells     int
	gcCycles        uint32
	gcPause         time.Duration
	bytes           uint64
	events, dropped uint64
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: fig4-hotpath, grid-service or chaos-resume")
	seed := flag.Int64("seed", 1, "workload seed; every job derives its own seed from it")
	window := flag.Float64("seconds", 20, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *window <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	w, err := newWork(*name, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(w.dir)
	out, err := w.execute(mk, time.Duration(*window*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchDir is where runs keep their scratch files and traces, relative
// to the directory the benchmark runs from.
const benchDir = ".bench_build/perfbench"

func newWork(name string, seed int64, traced bool) (*work, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(benchDir, "run-")
	if err != nil {
		return nil, err
	}
	w := &work{workload: name, seeds: newJobSeeds(seed, name), dir: dir, traced: traced}
	if traced {
		w.rec = newRecorder()
	}
	return w, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute sets the workload up (several times, keeping the last), runs
// the timed window, checks every job and assembles the result.
func (w *work) execute(mk func() workload, d time.Duration) (*result, error) {
	printMachine(w.dir)
	var setups []float64
	var wl workload
	var start time.Duration // CPU time at the start of a set-up; process start for the first
	for i := 0; i < setUps; i++ {
		if wl != nil {
			wl.tearDown()
			start = cpuTime()
		}
		wl = mk()
		if err := wl.setUp(w); err != nil {
			wl.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}
	defer wl.tearDown()

	steal0, ticks0 := stealTicks()
	if w.traced {
		// Half the window plain, half instrumented: the difference between
		// the two halves' jobs is what tracing costs.
		if err := wl.run(w, d/2, false); err != nil {
			return nil, err
		}
		if err := wl.run(w, d-d/2, true); err != nil {
			return nil, err
		}
		if err := w.serviceProbe(); err != nil {
			return nil, err
		}
	} else if err := wl.run(w, d, false); err != nil {
		return nil, err
	}
	steal1, ticks1 := stealTicks()
	w.stealPct = 100 * perUnit(float64(steal1-steal0), int(ticks1-ticks0))
	if w.peakRSS == 0 {
		// Fewer than rssJobs finished: the window's peak, read before the
		// checks, whose reference runs use both cores.
		w.peakRSS = peakRSSMB()
	}
	for _, fn := range w.postWindow {
		if err := fn(); err != nil {
			return nil, err
		}
	}

	out := &result{Metrics: map[string]metric{}}
	for _, j := range w.jobs {
		out.Attempted += j.cells
		failed, err := j.check()
		if err != nil {
			return nil, fmt.Errorf("checking job seed %d: %w", j.seed, err)
		}
		out.Failed += failed
	}
	if w.traced {
		out.Failed += w.layers.mismatched
	}
	out.Correct = out.Failed == 0 && len(w.failures) == 0
	for i, f := range w.failures {
		if i == 5 {
			fmt.Printf("... and %d more failures\n", len(w.failures)-5)
			break
		}
		fmt.Println("FAIL:", f)
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("no job finished in the window")
	}

	fmt.Printf("workload %s: %d jobs, %d cells, window %.3f s wall, %.3f s CPU, steal %.1f%%; set-ups %s CPU s\n",
		w.workload, len(w.jobs), out.Attempted, w.window.Seconds(), w.cpu.Seconds(), w.stealPct, fmtList(setups))
	plain := w.plainJobs()
	printJobTimes("wall", plain, func(j jobRecord) time.Duration { return j.wall })
	printJobTimes("CPU", plain, func(j jobRecord) time.Duration { return j.cpu })
	if w.traced {
		w.perLayer(out)
		if err := w.writeTrace(); err != nil {
			return nil, err
		}
	} else {
		w.endToEnd(out, setups, plain)
	}
	return out, nil
}

// plainJobs are the timed jobs without instrumentation: every job of an
// untraced run, the first half of a traced one.
func (w *work) plainJobs() []jobRecord {
	var out []jobRecord
	for _, j := range w.jobs {
		if !j.instrumented {
			out = append(out, j)
		}
	}
	return out
}

func seconds(jobs []jobRecord, f func(jobRecord) time.Duration) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j).Seconds()
	}
	return xs
}

// printJobTimes prints a job time's median with its sample count,
// quartiles and the highest tail that leaves ten samples beyond it.
func printJobTimes(kind string, jobs []jobRecord, f func(jobRecord) time.Duration) {
	xs := seconds(jobs, f)
	tail := ""
	if q, name, ok := tailQuantile(len(xs)); ok {
		tail = fmt.Sprintf(", %s %.4f", name, quantile(xs, q))
	}
	fmt.Printf("job %s time p50 %.4f s over n=%d jobs (p25 %.4f, p75 %.4f%s)\n",
		kind, median(xs), len(xs), quantile(xs, 0.25), quantile(xs, 0.75), tail)
}

// endToEnd fills the five end-to-end metrics.  Times are process CPU
// time, which leaves out the time the hypervisor runs other guests on
// this machine's CPUs; the wall-clock figures are printed beside them.
func (w *work) endToEnd(out *result, setups []float64, plain []jobRecord) {
	cells := 0
	for _, j := range plain {
		cells += j.cells
	}
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["cells_per_cpu_s"] = metric{float64(cells) / w.cpu.Seconds(), "cells/s"}
	out.Metrics["job_cpu_s_p50"] = metric{median(seconds(plain, func(j jobRecord) time.Duration { return j.cpu })), "s"}
	out.Metrics["allocs_per_cell"] = metric{float64(w.mallocs) / float64(cells), "allocs"}
	out.Metrics["peak_rss_mb"] = metric{w.peakRSS, "MB"}
	fmt.Printf("wall clock: %.2f cells/s\n", float64(cells)/w.window.Seconds())
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("  %-18s %12.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

// writeTrace writes the run's spans as a Chrome trace and prints where
// the traced jobs' wall clock went, layer by layer.
func (w *work) writeTrace() error {
	spans := w.rec.snapshot()
	fmt.Printf("%-24s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range layerTotals(spans) {
		fmt.Printf("%-24s %7d %12.3f %12.3f\n", t.name, t.count,
			float64(t.total.Microseconds())/1e3, float64(t.self.Microseconds())/1e3)
	}
	path := filepath.Join(benchDir, fmt.Sprintf("trace-%s-seed%d.json", w.workload, w.seeds.root))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", path, len(spans))
	return nil
}
