package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/starpu"
)

// resetGraphs empties the process-wide DAG cache, so a test starts
// cold.
func resetGraphs() {
	graphs.Lock()
	defer graphs.Unlock()
	graphs.m, graphs.order, graphs.tasks = nil, nil, 0
}

// dagLog is an observer recording every runtime event as a line.
type dagLog struct{ lines []string }

func (l *dagLog) TaskSubmitted(t *starpu.Task) {
	l.lines = append(l.lines, fmt.Sprintf("submit %d %s", t.ID, t.Tag))
}
func (l *dagLog) TaskStarted(w int, t *starpu.Task) {
	l.lines = append(l.lines, fmt.Sprintf("start %d %d %v", w, t.ID, t.StartT))
}
func (l *dagLog) TaskCompleted(w int, t *starpu.Task) {
	l.lines = append(l.lines, fmt.Sprintf("complete %d %d %v", w, t.ID, t.EndT))
}
func (l *dagLog) SchedDecision(d starpu.Decision) {
	l.lines = append(l.lines, fmt.Sprintf("decide %v %d %d %s %v", d.Time, d.Task.ID, d.Chosen, d.Reason, d.Candidates))
}

// dagDigest renders every task field, dependency and successor order
// of rt's DAG, and every handle the tasks access (numbered by first
// access, the only handle identity visible outside starpu).
func dagDigest(rt *starpu.Runtime) []string {
	ids := func(ts []*starpu.Task) []int {
		out := make([]int, len(ts))
		for i, t := range ts {
			out[i] = t.ID
		}
		return out
	}
	handles := make(map[*starpu.Handle]int)
	var out []string
	for _, t := range rt.Tasks() {
		var hs []int
		for _, h := range t.Handles {
			n, ok := handles[h]
			if !ok {
				n = len(handles)
				handles[h] = n
				out = append(out, fmt.Sprintf("handle %d %v %v", n, h.Bytes(), h.Dims()))
			}
			hs = append(hs, n)
		}
		out = append(out, fmt.Sprintf(
			"task %d %p %v %v prio=%d work=%v tag=%s fp=%x func=%t retries=%d w=%d t=%v/%v/%v/%v xfer=%v deps=%v succ=%v",
			t.ID, t.Codelet, hs, t.Modes, t.Priority, t.Work, t.Tag, t.Footprint(), t.Func != nil,
			t.Retries, t.WorkerID,
			t.SubmitT, t.ReadyT, t.StartT, t.EndT, t.TransferBytes, ids(t.Dependencies()), ids(t.Successors())))
	}
	for h, n := range handles {
		out = append(out, fmt.Sprintf("valid %d %v", n, h.ValidNodes()))
	}
	slices.Sort(out[len(out)-len(handles):])
	return out
}

// TestSubmitGraphMatchesSubmit instantiates each workload's recorded
// DAG next to the Chameleon builder run through Submit, on two
// identical platforms under dmdas, and requires the same tasks, edges,
// handles and observer events after submission, after one more Submit
// on both runtimes, and after running both to completion.
func TestSubmitGraphMatchesSubmit(t *testing.T) {
	spec, err := platform.SpecByName(platform.TwoV100Name)
	if err != nil {
		t.Fatal(err)
	}
	var cases []Workload
	for _, op := range []Operation{GEMM, POTRF, GEQRF} {
		for _, p := range prec.All {
			w := Workload{Op: op, N: 20 * 1920, NB: 1920, Precision: p}
			cases = append(cases, CalibrationWorkload(w))
			if op != GEQRF { // tile QR needs NB to divide N
				w.N = 4*w.NB + w.NB/3
				cases = append(cases, w)
			}
		}
	}
	for _, w := range cases {
		t.Run(w.String(), func(t *testing.T) {
			g, err := starpu.Record(func(rt *starpu.Runtime) error { return build(rt, w) })
			if err != nil {
				t.Fatal(err)
			}
			newRT := func() (*starpu.Runtime, *dagLog) {
				p, err := platform.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				log := &dagLog{}
				rt, err := starpu.New(p, starpu.Config{Scheduler: "dmdas", Seed: 5, Observer: log})
				if err != nil {
					t.Fatal(err)
				}
				return rt, log
			}
			direct, dlog := newRT()
			if err := build(direct, w); err != nil {
				t.Fatal(err)
			}
			inst, ilog := newRT()
			if err := inst.SubmitGraph(g); err != nil {
				t.Fatal(err)
			}
			compare := func(stage string) {
				t.Helper()
				for name, pair := range map[string][2][]string{
					"DAG":    {dagDigest(direct), dagDigest(inst)},
					"events": {dlog.lines, ilog.lines},
				} {
					a, b := pair[0], pair[1]
					for i := range min(len(a), len(b)) {
						if a[i] != b[i] {
							t.Fatalf("%s: %s line %d differs:\n Submit      %s\n SubmitGraph %s", stage, name, i, a[i], b[i])
						}
					}
					if len(a) != len(b) {
						t.Fatalf("%s: %s has %d lines through Submit, %d through SubmitGraph", stage, name, len(a), len(b))
					}
				}
			}
			compare("submitted")

			// One more task on both: its inferred dependencies must agree,
			// which needs the instance's access history restored.  It
			// writes the first task's first tile, which later tasks only
			// read, so it depends on the trailing readers.
			var extra [2]*starpu.Task
			for i, rt := range []*starpu.Runtime{direct, inst} {
				first, last := rt.Tasks()[0], rt.Tasks()[len(rt.Tasks())-1]
				extra[i] = &starpu.Task{
					Codelet: first.Codelet,
					Handles: []*starpu.Handle{first.Handles[0], last.Handles[len(last.Handles)-1]},
					Modes:   []starpu.AccessMode{starpu.RW, starpu.R},
					Work:    first.Work,
					Tag:     "extra",
				}
				if err := rt.Submit(extra[i]); err != nil {
					t.Fatal(err)
				}
			}
			if len(extra[0].Dependencies()) < 2 {
				t.Fatalf("the extra task depends on %d tasks; it does not exercise the readers", len(extra[0].Dependencies()))
			}
			compare("extra submit")

			for _, rt := range []*starpu.Runtime{direct, inst} {
				if _, err := rt.Run(); err != nil {
					t.Fatal(err)
				}
			}
			compare("run")
		})
	}
}

// TestCalibrationWorkload pins the one calibration-shape rule: at most
// six tile rows counting the edge tile, cut to six full tiles.
func TestCalibrationWorkload(t *testing.T) {
	for _, c := range []struct{ n, nb, want int }{
		{6 * 100, 100, 600},       // six full tiles: kept
		{5*100 + 40, 100, 540},    // six tiles with an edge tile: kept
		{6*100 + 40, 100, 600},    // seven tiles, edge included: cut
		{20 * 100, 100, 600},      // large: cut
		{3*100 + 1, 100, 301},     // small with a one-column edge: kept
		{40, 100, 40},             // one partial tile: kept
		{7*2880 - 1, 2880, 17280}, // seven tiles, last one short by one: cut
	} {
		w := Workload{Op: POTRF, N: c.n, NB: c.nb, Precision: prec.Double}
		got := CalibrationWorkload(w)
		if got.N != c.want || got.NB != c.nb || got.Op != w.Op || got.Precision != w.Precision {
			t.Errorf("CalibrationWorkload(N=%d NB=%d) = %v, want N=%d", c.n, c.nb, got, c.want)
		}
	}
}

// TestRunCellsColdGraphCache runs a sweep over repeated shapes on four
// executors starting from an empty DAG cache — every shape is missed
// by several goroutines at once — and requires the digests of a serial
// run.  Run it under -race: the cache and the shared graphs are the
// only state the executors share.
func TestRunCellsColdGraphCache(t *testing.T) {
	rows := reducedRows(t, POTRF, prec.Single, 5)
	cells, err := SweepCellConfigs(rows, SweepOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	digests := func(workers int) []string {
		resetGraphs()
		res, err := RunCells(cells, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res))
		for i := range res {
			if out[i], err = Digest(cells[i], res[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	parallel := digests(4)
	serial := digests(1)
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Errorf("cell %d (%s): 4 executors on a cold cache digest %s, serial %s",
				i, cells[i].CheckpointKey(), parallel[i], serial[i])
		}
	}
}

// TestGraphCacheBound fills the cache past its task bound and checks
// that the oldest shapes go first and the total stays bounded.
func TestGraphCacheBound(t *testing.T) {
	resetGraphs()
	defer resetGraphs()
	var order []Workload
	for nt := 20; ; nt++ {
		w := Workload{Op: POTRF, N: nt * 10, NB: 10, Precision: prec.Single}
		if _, err := graphFor(w); err != nil {
			t.Fatal(err)
		}
		order = append(order, w)
		graphs.Lock()
		tasks, kept, first := graphs.tasks, len(graphs.order), graphs.order[0]
		graphs.Unlock()
		if tasks > graphCacheTasks {
			t.Fatalf("cache holds %d tasks, bound %d", tasks, graphCacheTasks)
		}
		if kept < len(order) {
			if first != order[len(order)-kept] {
				t.Fatalf("oldest kept shape is %v, want %v", first, order[len(order)-kept])
			}
			return
		}
	}
}

// TestNoAllocsWarmCell bounds a whole warm POTRF cell through Run: with
// the DAG cached, a cell allocates a few hundred times (platform,
// runtimes, result), not once or more per task.  The count bound is
// twice the count measured when the cache landed (462).  The byte bound
// holds Run to recycling its DAG storage: a warm cell that recycles
// allocates ~215 B per task of its two passes, one that allocates its
// DAG afresh ~690 B, and the bound, 384 B, sits between the two.
func TestNoAllocsWarmCell(t *testing.T) {
	row, err := LookupTableII(platform.TwoV100Name, POTRF, prec.Single)
	if err != nil {
		t.Fatal(err)
	}
	row.N = 8 * row.NB
	spec, err := platform.SpecByName(row.Platform)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Workload: row.Workload(), Plan: powercap.MustParsePlan("HB"), BestFrac: row.BestFrac}
	run := func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // records the measured and calibration shapes
	const bound = 2 * 462
	if allocs := testing.AllocsPerRun(5, run); allocs > bound {
		t.Errorf("a warm %v cell allocates %.0f times, bound %d", cfg.Workload, allocs, bound)
	}

	tasks := 0
	for _, w := range []Workload{cfg.Workload, CalibrationWorkload(cfg.Workload)} {
		g, err := graphFor(w)
		if err != nil {
			t.Fatal(err)
		}
		tasks += g.NumTasks()
	}
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&m1)
	if perTask := (m1.TotalAlloc - m0.TotalAlloc) / runs / uint64(tasks); perTask > 384 {
		t.Errorf("a warm %v cell allocates %d B per task, bound 384 B: is Run still recycling its DAG storage?",
			cfg.Workload, perTask)
	}
}

// benchDAG is fig4-hotpath's largest POTRF shape (2 925 tasks).
var benchDAG = Workload{Op: POTRF, N: 48000, NB: 1920, Precision: prec.Single}

// benchSubmit times submit into a fresh dmdas runtime on a fresh
// platform per iteration; building those is not timed.
func benchSubmit(b *testing.B, submit func(*starpu.Runtime) error) {
	spec, err := platform.SpecByName(platform.FourA100Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := platform.New(spec)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := starpu.New(p, starpu.Config{Scheduler: "dmdas"})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := submit(rt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitDirect is the reference: the Chameleon builder run
// through Submit, task by task.
func BenchmarkSubmitDirect(b *testing.B) {
	benchSubmit(b, func(rt *starpu.Runtime) error { return build(rt, benchDAG) })
}

// BenchmarkSubmitGraphCold is a shape's first cell: record the DAG,
// then instantiate it.
func BenchmarkSubmitGraphCold(b *testing.B) {
	benchSubmit(b, func(rt *starpu.Runtime) error {
		g, err := starpu.Record(func(rt *starpu.Runtime) error { return build(rt, benchDAG) })
		if err != nil {
			return err
		}
		return rt.SubmitGraph(g)
	})
}

// BenchmarkSubmitGraphWarm is every later cell of the shape: instantiate
// the recorded DAG.
func BenchmarkSubmitGraphWarm(b *testing.B) {
	g, err := starpu.Record(func(rt *starpu.Runtime) error { return build(rt, benchDAG) })
	if err != nil {
		b.Fatal(err)
	}
	benchSubmit(b, func(rt *starpu.Runtime) error { return rt.SubmitGraph(g) })
}
