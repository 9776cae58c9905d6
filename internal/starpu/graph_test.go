package starpu

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// buildTiles submits a small tiled Cholesky-shaped DAG over an nt x nt
// grid of 64x64 tiles, with a write-only output tile and trailing
// readers left on the diagonal tiles, so recording covers every access
// mode and the restored access history is non-trivial.
func buildTiles(nt int) func(*Runtime) error {
	return func(rt *Runtime) error {
		a := make([][]*Handle, nt)
		for i := range a {
			a[i] = make([]*Handle, nt)
			for j := range a[i] {
				a[i][j] = rt.Register(nil, 8, 64, 64)
			}
		}
		out := rt.Register(nil, 8, 64, 32)
		submit := func(c *Codelet, prio int, tag string, hs []*Handle, ms []AccessMode) error {
			return rt.Submit(&Task{Codelet: c, Handles: hs, Modes: ms, Work: 1e8, Priority: prio, Tag: tag})
		}
		for k := 0; k < nt; k++ {
			if err := submit(cpuOnly, 4*(nt-k)+3, fmt.Sprintf("potrf(%d)", k),
				[]*Handle{a[k][k]}, []AccessMode{RW}); err != nil {
				return err
			}
			for i := k + 1; i < nt; i++ {
				if err := submit(anyCodelet, 4*(nt-k)+2, fmt.Sprintf("trsm(%d,%d)", i, k),
					[]*Handle{a[k][k], a[i][k]}, []AccessMode{R, RW}); err != nil {
					return err
				}
			}
			for i := k + 1; i < nt; i++ {
				for j := k + 1; j <= i; j++ {
					if err := submit(anyCodelet, 4*(nt-k), fmt.Sprintf("update(%d,%d,%d)", i, j, k),
						[]*Handle{a[i][k], a[j][k], a[i][j]}, []AccessMode{R, R, RW}); err != nil {
						return err
					}
				}
			}
		}
		for k := 0; k < nt; k++ {
			if err := submit(anyCodelet, 0, fmt.Sprintf("read(%d)", k),
				[]*Handle{a[k][k], out}, []AccessMode{R, W}); err != nil {
				return err
			}
			if err := submit(gpuOnly, 0, fmt.Sprintf("peek(%d)", k),
				[]*Handle{a[k][k]}, []AccessMode{R}); err != nil {
				return err
			}
		}
		return nil
	}
}

// cloneGraph deep-copies g.  The field-count guard fails when Graph
// gains a field this copy does not know about.
func cloneGraph(t *testing.T, g *Graph) *Graph {
	t.Helper()
	if n := reflect.TypeOf(Graph{}).NumField(); n != 17 {
		t.Fatalf("Graph has %d fields; update cloneGraph", n)
	}
	c := &Graph{
		codelets:  slices.Clone(g.codelets),
		keys:      slices.Clone(g.keys),
		tags:      string([]byte(g.tags)),
		key:       slices.Clone(g.key),
		mode:      slices.Clone(g.mode),
		priority:  slices.Clone(g.priority),
		tagOff:    slices.Clone(g.tagOff),
		predOff:   slices.Clone(g.predOff),
		predIdx:   slices.Clone(g.predIdx),
		handleIdx: slices.Clone(g.handleIdx),
		bytes:     slices.Clone(g.bytes),
		dimOff:    slices.Clone(g.dimOff),
		dims:      slices.Clone(g.dims),
		writer:    slices.Clone(g.writer),
		readerOff: slices.Clone(g.readerOff),
		readerIdx: slices.Clone(g.readerIdx),
	}
	for _, m := range g.modes {
		c.modes = append(c.modes, slices.Clone(m))
	}
	return c
}

// taskDigest renders everything about a task an instance must
// reproduce, timings included.
func taskDigest(t *Task) string {
	ids := func(ts []*Task) []int {
		out := make([]int, len(ts))
		for i, x := range ts {
			out[i] = x.ID
		}
		return out
	}
	var hs []int32
	for _, h := range t.Handles {
		hs = append(hs, h.id)
	}
	return fmt.Sprintf("%d %s %v %v prio=%d work=%v tag=%s fp=%x slot=%d deps=%v succ=%v ndeps=%d retries=%d w=%d t=%v/%v/%v/%v xfer=%v",
		t.ID, t.Codelet.Name, hs, t.Modes, t.Priority, t.Work, t.Tag, t.Footprint(), t.estSlot,
		ids(t.Dependencies()), ids(t.Successors()), t.ndeps, t.Retries, t.WorkerID,
		t.SubmitT, t.ReadyT, t.StartT, t.EndT, t.TransferBytes)
}

// handleDigest renders a handle's geometry, coherence and history.
func handleDigest(h *Handle) string {
	var readers []int
	for _, r := range h.readers {
		readers = append(readers, r.ID)
	}
	writer := -1
	if h.lastWriter != nil {
		writer = h.lastWriter.ID
	}
	return fmt.Sprintf("%d %v %v valid=%b writer=%d readers=%v", h.id, h.bytes, h.dims, h.valid, writer, readers)
}

// eventLog is an observer recording every event as a line.
type eventLog struct{ lines []string }

func (l *eventLog) TaskSubmitted(t *Task) { l.lines = append(l.lines, "submit "+taskDigest(t)) }
func (l *eventLog) TaskStarted(w int, t *Task) {
	l.lines = append(l.lines, fmt.Sprintf("start %d %d", w, t.ID))
}
func (l *eventLog) TaskCompleted(w int, t *Task) {
	l.lines = append(l.lines, fmt.Sprintf("complete %d %s", w, taskDigest(t)))
}
func (l *eventLog) SchedDecision(d Decision) {
	l.lines = append(l.lines, fmt.Sprintf("decide %d %d %s %v", d.Task.ID, d.Chosen, d.Reason, d.Candidates))
}

// TestSubmitGraphMatchesSubmitTiles instantiates a recorded DAG next to
// the same builder run through Submit, under dmdas on bounded GPU
// memories, and requires identical tasks, handles, observer events and
// timings — before the run, after one more Submit, and after the run.
func TestSubmitGraphMatchesSubmitTiles(t *testing.T) {
	build := buildTiles(5)
	g, err := Record(build)
	if err != nil {
		t.Fatal(err)
	}
	newRT := func() (*Runtime, *eventLog) {
		log := &eventLog{}
		m := &cappedMachine{testMachine: newTestMachine(), capacity: 6 * tileBytes}
		rt, err := New(m, Config{Scheduler: "dmdas", Seed: 3, Observer: log})
		if err != nil {
			t.Fatal(err)
		}
		return rt, log
	}
	direct, dlog := newRT()
	if err := build(direct); err != nil {
		t.Fatal(err)
	}
	inst, ilog := newRT()
	if err := inst.SubmitGraph(g); err != nil {
		t.Fatal(err)
	}
	compare := func(stage string) {
		t.Helper()
		compareRuntimes(t, stage, direct, inst, dlog, ilog)
	}
	compare("submitted")
	for _, rt := range []*Runtime{direct, inst} {
		hs := []*Handle{rt.handles[0], rt.handles[6], rt.handles[len(rt.handles)-1]}
		if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: hs, Modes: []AccessMode{RW, R, RW}, Work: 1e8, Tag: "extra"}); err != nil {
			t.Fatal(err)
		}
	}
	compare("extra submit")
	for _, rt := range []*Runtime{direct, inst} {
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	}
	compare("run")
}

// compareRuntimes requires got to hold the same tasks (edges in order),
// handles (readers in order) and observer events as want.
func compareRuntimes(t *testing.T, stage string, want, got *Runtime, wantLog, gotLog *eventLog) {
	t.Helper()
	if len(want.tasks) != len(got.tasks) || len(want.handles) != len(got.handles) {
		t.Fatalf("%s: want %d tasks / %d handles, have %d / %d", stage,
			len(want.tasks), len(want.handles), len(got.tasks), len(got.handles))
	}
	for i := range want.tasks {
		if a, b := taskDigest(want.tasks[i]), taskDigest(got.tasks[i]); a != b {
			t.Fatalf("%s: task %d differs:\n want %s\n have %s", stage, i, a, b)
		}
	}
	for i := range want.handles {
		if a, b := handleDigest(want.handles[i]), handleDigest(got.handles[i]); a != b {
			t.Fatalf("%s: handle %d differs:\n want %s\n have %s", stage, i, a, b)
		}
	}
	if !slices.Equal(wantLog.lines, gotLog.lines) {
		for i := range min(len(wantLog.lines), len(gotLog.lines)) {
			if wantLog.lines[i] != gotLog.lines[i] {
				t.Fatalf("%s: event %d differs:\n want %s\n have %s", stage, i, wantLog.lines[i], gotLog.lines[i])
			}
		}
		t.Fatalf("%s: want %d events, have %d", stage, len(wantLog.lines), len(gotLog.lines))
	}
}

// TestGraphImmutable runs an instance of a graph through injected task
// faults, a worker eviction, LRU evictions on bounded memory and an
// extra Submit, and requires the graph to be bit-for-bit unchanged.
func TestGraphImmutable(t *testing.T) {
	g, err := Record(buildTiles(6))
	if err != nil {
		t.Fatal(err)
	}
	want := cloneGraph(t, g)
	m := &cappedMachine{testMachine: newTestMachine(), capacity: 5 * tileBytes}
	inj := &scriptInjector{failures: map[string]int{"trsm(3,0)": 2, "update(4,2,1)": 1, "potrf(2)": 1}, frac: 0.5, retries: 3}
	rt, err := New(m, Config{Scheduler: "dmdas", Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SubmitGraph(g); err != nil {
		t.Fatal(err)
	}
	hs := []*Handle{rt.handles[0], rt.handles[7]}
	if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: hs, Modes: []AccessMode{R, RW}, Work: 1e8, Tag: "extra"}); err != nil {
		t.Fatal(err)
	}
	m.engine.At(1e-3, func() { rt.EvictWorker(2, "test") })
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, tk := range rt.tasks {
		retries += tk.Retries
	}
	if retries == 0 || len(rt.Evictions()) != 1 || rt.MemoryStats().Evictions == 0 {
		t.Fatalf("the run did not exercise faults, eviction and LRU: %d retries, %d worker evictions, %d LRU evictions",
			retries, len(rt.Evictions()), rt.MemoryStats().Evictions)
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatal("running an instance changed its graph")
	}
}

// TestRecordRefusals: numeric bodies and handle payloads stay on
// Submit.
func TestRecordRefusals(t *testing.T) {
	for name, build := range map[string]func(*Runtime) error{
		"func": func(rt *Runtime) error {
			return rt.Submit(&Task{Codelet: anyCodelet, Func: func() error { return nil }})
		},
		"payload": func(rt *Runtime) error {
			rt.Register([]float64{1}, 8, 1)
			return nil
		},
	} {
		if _, err := Record(build); err == nil {
			t.Errorf("%s: recorded", name)
		}
	}
	boom := errors.New("boom")
	if _, err := Record(func(*Runtime) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("builder error: got %v", err)
	}
}

// TestSubmitGraphNeedsEmptyRuntime: instantiating over existing tasks
// would renumber them, so it is refused; so is a graph whose codelet no
// worker of the machine can run.
func TestSubmitGraphNeedsEmptyRuntime(t *testing.T) {
	g, err := Record(buildTiles(2))
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := newRT(t, "eager")
	rt.Register(nil, 8, 4)
	if err := rt.SubmitGraph(g); err == nil {
		t.Error("SubmitGraph accepted a runtime with a registered handle")
	}
	m := newTestMachine()
	m.infos = m.infos[:2] // CPUs only: peek's GPU-only codelet cannot run
	rt, err = New(m, Config{Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SubmitGraph(g); err == nil {
		t.Error("SubmitGraph accepted a codelet no worker can run")
	}
}
