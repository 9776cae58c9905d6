// External test package: the tests drive full measured runs through
// core (which owns the tracer wiring) and assert the trace-level
// contracts — energy attribution closure, the critical-path bound and
// byte-identical artifacts at any worker count.
package spantrace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chameleon"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsutil"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/spantrace"
	"repro/internal/starpu"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testRow is a 5x5-tile double POTRF on the V100 node: big enough for a
// real DAG (35 tasks, panel chain on the CPUs), small enough to run in
// milliseconds.
func testRow() core.TableIIRow {
	return core.TableIIRow{
		Platform: platform.TwoV100Name, Op: core.POTRF,
		N: 1920 * 5, NB: 1920, Precision: prec.Double, BestFrac: 0.56,
	}
}

func runTraced(t *testing.T, plan string, seed int64) *core.Result {
	t.Helper()
	row := testRow()
	spec, err := platform.SpecByName(row.Platform)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Spec:     spec,
		Workload: row.Workload(),
		Plan:     powercap.MustParsePlan(plan),
		BestFrac: row.BestFrac,
		Seed:     seed,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Config.Trace set but Result.Trace is nil")
	}
	return res
}

// TestAttributionClosure is the acceptance property: per device, the
// summed span energies plus the static residual reproduce the measured
// counter delta within 0.1 %, across unbalanced plans.
func TestAttributionClosure(t *testing.T) {
	for _, plan := range []string{"HH", "HB", "BB", "LH", "LL"} {
		res := runTraced(t, plan, 1)
		tr := res.Trace
		if len(tr.Spans) == 0 || len(tr.Devices) == 0 {
			t.Fatalf("plan %s: empty trace (%d spans, %d devices)", plan, len(tr.Spans), len(tr.Devices))
		}
		for _, d := range tr.Devices {
			if d.MeasuredJ != res.Device[d.Device] {
				t.Errorf("plan %s %s: trace measured %v != result device %v",
					plan, d.Device, d.MeasuredJ, res.Device[d.Device])
			}
			if rel := d.RelError(); rel > 0.001 {
				t.Errorf("plan %s %s: attribution off by %.4f%% (measured %.3f J, spans %.3f J, static %.3f J)",
					plan, d.Device, 100*rel, float64(d.MeasuredJ), float64(d.SpanJ), float64(d.StaticJ))
			}
		}
		if worst := tr.MaxDeviceRelError(); worst > 0.001 {
			t.Errorf("plan %s: MaxDeviceRelError = %.5f, want <= 0.001", plan, worst)
		}
	}
}

// TestCriticalPathBound checks the analyzer's core invariant: the
// dependency-weighted critical path is a lower bound on the measured
// makespan, and its tasks form a real dependency chain.
func TestCriticalPathBound(t *testing.T) {
	for _, plan := range []string{"HH", "LB"} {
		res := runTraced(t, plan, 2)
		rep := spantrace.Analyze(res.Trace, 0)
		if len(rep.CritPath.Tasks) == 0 {
			t.Fatalf("plan %s: empty critical path", plan)
		}
		if rep.CritPath.Length > res.Makespan {
			t.Errorf("plan %s: critical path %.6f s exceeds makespan %.6f s",
				plan, float64(rep.CritPath.Length), float64(res.Makespan))
		}
		if rep.CritPath.Fraction <= 0 || rep.CritPath.Fraction > 1 {
			t.Errorf("plan %s: critical-path fraction = %v, want in (0, 1]", plan, rep.CritPath.Fraction)
		}
		edge := make(map[[2]int]bool, len(res.Trace.Edges))
		for _, e := range res.Trace.Edges {
			edge[[2]int{e.From, e.To}] = true
		}
		for i := 1; i < len(rep.CritPath.Tasks); i++ {
			if !edge[[2]int{rep.CritPath.Tasks[i-1], rep.CritPath.Tasks[i]}] {
				t.Errorf("plan %s: critical path step %d->%d is not a recorded edge",
					plan, rep.CritPath.Tasks[i-1], rep.CritPath.Tasks[i])
			}
		}
		var byLevel float64
		for _, d := range rep.CritPath.ByLevel {
			byLevel += float64(d)
		}
		if diff := byLevel - float64(rep.CritPath.Length); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("plan %s: ByLevel sums to %v, path length %v", plan, byLevel, rep.CritPath.Length)
		}
	}
}

// traceDirect runs a DAG built by submit on a fresh platform with a
// tracer attached directly (no calibration pass, no caps), the way a
// tool driving the runtime itself wires it.
func traceDirect(t *testing.T, spec platform.Spec, sched string, submit func(*starpu.Runtime) error) *spantrace.Trace {
	t.Helper()
	p, err := platform.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tracer := spantrace.NewTracer(p)
	rt, err := starpu.New(p, starpu.Config{Scheduler: sched, Observer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(rt); err != nil {
		t.Fatal(err)
	}
	tracer.Begin(rt)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return tracer.Finalize(nil)
}

// TestCriticalPathOfChain: on a pure chain the critical path is the
// whole DAG and bounds the makespan exactly.
func TestCriticalPathOfChain(t *testing.T) {
	const n = 7
	tr := traceDirect(t, platform.TwoV100Spec(), "eager", func(rt *starpu.Runtime) error {
		cl := chameleon.Codelet("dgemm")
		h := rt.Register(nil, 8, 512, 512)
		for i := 0; i < n; i++ {
			if err := rt.Submit(&starpu.Task{Codelet: cl, Handles: []*starpu.Handle{h},
				Modes: []starpu.AccessMode{starpu.RW}, Work: 1e9}); err != nil {
				return err
			}
		}
		return nil
	})
	cp := spantrace.Analyze(tr, 0).CritPath
	if len(cp.Tasks) != n {
		t.Errorf("chain critical path has %d tasks, want %d", len(cp.Tasks), n)
	}
	if cp.Fraction < 0.8 || cp.Fraction > 1.0001 {
		t.Errorf("chain fraction = %.3f, want ~1 (makespan is the chain)", cp.Fraction)
	}
}

// TestPotrfCriticalPathOnCPU validates the paper's §III-C observation:
// the POTRF critical path runs through the CPU-only panel tasks.
func TestPotrfCriticalPathOnCPU(t *testing.T) {
	tr := traceDirect(t, platform.FourA100Spec(), "dmdas", func(rt *starpu.Runtime) error {
		d, err := chameleon.NewDesc[float64](rt, 2880*12, 2880, false)
		if err != nil {
			return err
		}
		return chameleon.Potrf(rt, d)
	})
	cp := spantrace.Analyze(tr, 0).CritPath
	cpu := cp.ByLevel["cpu"]
	if cpu == 0 {
		t.Fatal("POTRF critical path contains no CPU tasks")
	}
	if share := float64(cpu / cp.Length); share < 0.3 {
		t.Errorf("CPU share of POTRF critical path = %.2f, want substantial (panels are CPU-only)", share)
	}
	// Every potrf panel must sit on the chain (they serialise the steps).
	codelet := make(map[int]string, len(tr.Spans))
	for _, s := range tr.Spans {
		codelet[s.Task] = s.Codelet
	}
	panels := 0
	for _, id := range cp.Tasks {
		if codelet[id] == "dpotrf" {
			panels++
		}
	}
	if panels < 10 {
		t.Errorf("only %d of 12 panels on the critical path", panels)
	}
}

// TestCriticalPathEmpty: an empty trace has an empty, zero-length path.
func TestCriticalPathEmpty(t *testing.T) {
	cp := spantrace.Analyze(&spantrace.Trace{}, 0).CritPath
	if cp.Length != 0 || len(cp.Tasks) != 0 || cp.Fraction != 0 {
		t.Errorf("empty critical path = %+v", cp)
	}
}

// TestEdgeSetShape pins the causal edge contract: edges point forward
// in submission order, are sorted by (To, From), and every executed
// task's recorded predecessors appear.
func TestEdgeSetShape(t *testing.T) {
	tr := runTraced(t, "HB", 3).Trace
	if len(tr.Edges) == 0 {
		t.Fatal("no edges recorded")
	}
	for i, e := range tr.Edges {
		if e.From >= e.To {
			t.Errorf("edge %d: From %d >= To %d", i, e.From, e.To)
		}
		if i > 0 {
			prev := tr.Edges[i-1]
			if prev.To > e.To || (prev.To == e.To && prev.From >= e.From) {
				t.Errorf("edges not sorted by (To, From): %v before %v", prev, e)
			}
		}
	}
	// The 5-tile POTRF DAG has a known dependency count: every non-root
	// task waits on at least one predecessor.
	hasPred := make(map[int]bool)
	for _, e := range tr.Edges {
		hasPred[e.To] = true
	}
	roots := 0
	for _, s := range tr.Spans {
		if !hasPred[s.Task] {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("POTRF DAG has %d roots, want 1 (the first panel)", roots)
	}
}

// TestSpanOrderWithRetries pins Finalize's span order on a run whose
// tasks fail and retry: spans sorted by (Task, StartT), every attempt of
// a task but its last aborted, each retry starting no earlier than the
// attempt before it ended, and the attribution still closing.
func TestSpanOrderWithRetries(t *testing.T) {
	row := testRow()
	spec, err := platform.SpecByName(row.Platform)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.ParseSpec("taskfail=0.3,retries=8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Spec: spec, Workload: row.Workload(), Plan: powercap.MustParsePlan("HB"),
		BestFrac: row.BestFrac, Seed: 4, Trace: true, Faults: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Trace.Spans
	retried := 0
	for i := 1; i < len(spans); i++ {
		prev, s := &spans[i-1], &spans[i]
		if prev.Task > s.Task || (prev.Task == s.Task && prev.StartT > s.StartT) {
			t.Fatalf("span %d (task %d at %v) after span %d (task %d at %v): not in (Task, StartT) order",
				i, s.Task, s.StartT, i-1, prev.Task, prev.StartT)
		}
		if prev.Task == s.Task {
			retried++
			if !prev.Aborted || s.StartT < prev.EndT {
				t.Errorf("task %d: attempt at %v follows an attempt (aborted %v) ending at %v",
					s.Task, s.StartT, prev.Aborted, prev.EndT)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no task retried: the fault schedule exercised nothing")
	}
	if worst := res.Trace.MaxDeviceRelError(); worst > 0.001 {
		t.Errorf("MaxDeviceRelError = %.5f, want <= 0.001", worst)
	}
}

// TestChromeExport validates the Chrome artifact end-to-end: it parses
// back as an event array, every causal edge yields one "s"/"f" flow
// pair with the finish bound to the enclosing slice, and flow arrows
// never point backward in time.
func TestChromeExport(t *testing.T) {
	tr := runTraced(t, "HB", 4).Trace
	var buf bytes.Buffer
	if err := spantrace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	starts := map[string]float64{}
	var nS, nF, nX, nThreads int
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				nThreads++
			}
		case "s":
			nS++
			starts[e.ID] = e.Ts
		case "f":
			nF++
			if e.BP != "e" {
				t.Errorf("flow finish %s missing bp:e", e.ID)
			}
		case "X":
			nX++
			if e.Ts < 0 || e.Dur <= 0 {
				t.Errorf("span event ts=%v dur=%v", e.Ts, e.Dur)
			}
			if e.Tid < 0 || e.Tid >= len(tr.Workers) {
				t.Errorf("span event tid %d out of range", e.Tid)
			}
		}
	}
	if nThreads != len(tr.Workers) {
		t.Errorf("thread_name metadata rows = %d, want one per worker (%d)", nThreads, len(tr.Workers))
	}
	if nS != len(tr.Edges) || nF != len(tr.Edges) {
		t.Errorf("flow events = %d starts / %d finishes, want %d each", nS, nF, len(tr.Edges))
	}
	if nX != len(tr.Spans) {
		t.Errorf("X events = %d, want %d spans", nX, len(tr.Spans))
	}
	for _, e := range events {
		if e.Ph == "f" {
			if from, ok := starts[e.ID]; !ok {
				t.Errorf("flow finish %s has no start", e.ID)
			} else if e.Ts < from {
				t.Errorf("flow %s points backward in time: %v -> %v", e.ID, from, e.Ts)
			}
		}
	}
}

// TestFoldedStacksSum checks the flamegraph artifact conserves energy:
// all folded values (microjoules) sum to the attributed machine total.
func TestFoldedStacksSum(t *testing.T) {
	tr := runTraced(t, "HB", 5).Trace
	var buf bytes.Buffer
	if err := spantrace.WriteFolded(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var sumUJ float64
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var stack string
		var v float64
		if _, err := fmt.Sscanf(string(line), "%s %f", &stack, &v); err != nil {
			t.Fatalf("bad folded line %q: %v", line, err)
		}
		sumUJ += v
	}
	var wantJ float64
	for _, d := range tr.Devices {
		wantJ += float64(d.AttributedJ())
	}
	if diff := sumUJ/1e6 - wantJ; diff > 0.001*wantJ || diff < -0.001*wantJ {
		t.Errorf("folded stacks sum to %.3f J, attributed total %.3f J", sumUJ/1e6, wantJ)
	}
}

// TestGoldenReport pins the analyzer's rendered report for the small
// POTRF DAG against testdata/analyze_potrf.golden (regenerate with
// go test ./internal/spantrace -update).
func TestGoldenReport(t *testing.T) {
	res := runTraced(t, "HB", 0)
	got := []byte(spantrace.Analyze(res.Trace, 5).String())

	golden := filepath.Join("testdata", "analyze_potrf.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fsutil.WriteFileAtomic(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/spantrace -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analyzer report drifted from golden; run go test ./internal/spantrace -update if intended\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// cellArtifacts serializes every artifact of every traced cell, keyed
// by the cell's configuration-derived name — the bytes capbench's
// -trace-dir would write.
func cellArtifacts(t *testing.T, rows []core.TableIIRow, opt core.SweepOptions, sweeps [][]core.PlanResult) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for i, row := range rows {
		for _, pr := range sweeps[i] {
			if pr.Result.Trace == nil {
				t.Fatalf("cell %s/%s has no trace", row.Workload(), pr.Plan)
			}
			key := core.TraceCellKey(row, opt, pr.Plan)
			stem := fmt.Sprintf("cell-%016x", uint64(core.CellSeed(opt.Seed, key)))
			var chrome, folded, rep bytes.Buffer
			if err := spantrace.WriteChrome(&chrome, pr.Result.Trace); err != nil {
				t.Fatal(err)
			}
			if err := spantrace.WriteFolded(&folded, pr.Result.Trace); err != nil {
				t.Fatal(err)
			}
			if err := spantrace.Analyze(pr.Result.Trace, 10).Write(&rep); err != nil {
				t.Fatal(err)
			}
			out[stem+".chrome.json"] = chrome.Bytes()
			out[stem+".folded.txt"] = folded.Bytes()
			out[stem+".report.txt"] = rep.Bytes()
		}
	}
	return out
}

// TestArtifactsParallelInvariant is the determinism acceptance check:
// every trace artifact of a traced sweep is byte-identical between a
// serial pool and an 8-worker pool.
func TestArtifactsParallelInvariant(t *testing.T) {
	rows := []core.TableIIRow{testRow()}
	opt := core.SweepOptions{Trace: true, Seed: 42}
	serial, err := core.ParallelSweep(rows, opt, core.ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.ParallelSweep(rows, opt, core.ParallelOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := cellArtifacts(t, rows, opt, serial)
	b := cellArtifacts(t, rows, opt, parallel)
	if len(a) != len(b) {
		t.Fatalf("artifact count differs: %d serial vs %d parallel", len(a), len(b))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Errorf("parallel run missing artifact %s", name)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between -parallel 1 and -parallel 8 (%d vs %d bytes)",
				name, len(want), len(got))
		}
	}
}
