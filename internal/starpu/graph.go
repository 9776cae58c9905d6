package starpu

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/eventsim"
	"repro/internal/units"
)

// Graph is an immutable recording of a cost-only DAG: the tasks, handles
// and dependencies a builder submitted, frozen by Record and
// instantiated into a runtime by SubmitGraph.  Nothing writes a Graph
// after Record returns, so one may be shared by any number of runtimes
// and goroutines.
//
// The layout is compact (DESIGN §14): per-task fields are int32 indices
// into shared tables, every tag is a substring of one string, and the
// flat handle and predecessor lists are consumed in task order.
// Successors are not stored; SubmitGraph rebuilds them from the
// predecessor lists.
type Graph struct {
	// Values the tasks share.
	codelets []*Codelet
	keys     []graphKey
	modes    [][]AccessMode
	tags     string

	// Per task, in ID order.  Task i's tag is tags[tagOff[i]:tagOff[i+1]]
	// and its predecessors (ascending ID) predIdx[predOff[i]:predOff[i+1]].
	// Its handles are the next len(modes[mode[i]]) entries of handleIdx.
	key       []int32
	mode      []int32
	priority  []int32
	tagOff    []int32
	predOff   []int32
	predIdx   []int32
	handleIdx []int32

	// Per handle, in registration order: size, dimensions (dims[dimOff[i]:
	// dimOff[i+1]]), last writer (-1 for none) and the readers since it
	// (readerIdx[readerOff[i]:readerOff[i+1]]).
	bytes     []units.Bytes
	dimOff    []int32
	dims      []int
	writer    []int32
	readerOff []int32
	readerIdx []int32
}

// graphKey is a recorded estimate key (see estKey) with the codelet as
// an index into Graph.codelets.
type graphKey struct {
	codelet   int32
	footprint uint64
	work      units.Flops
}

// NumTasks reports the recorded task count.
func (g *Graph) NumTasks() int { return len(g.key) }

// Record runs build on a private runtime and freezes the DAG it submits.
// The runtime sits on a stub machine (one CPU and one CUDA worker on one
// memory node, its own engine, the eager scheduler), so recording never
// touches a live platform.  Only cost-only DAGs can be recorded: a task
// with a numeric body, or a handle carrying a payload, is refused —
// such DAGs call Submit directly.
func Record(build func(*Runtime) error) (*Graph, error) {
	rt, err := New(recordMachine{eventsim.NewEngine()}, Config{Scheduler: "eager"})
	if err != nil {
		return nil, err
	}
	if err := build(rt); err != nil {
		return nil, err
	}
	return freeze(rt)
}

// freeze copies rt's submitted DAG into a Graph.
func freeze(rt *Runtime) (*Graph, error) {
	n := len(rt.tasks)
	var nHandles, nPreds, nTag int
	for _, t := range rt.tasks {
		if t.Func != nil {
			return nil, fmt.Errorf("starpu: cannot record task %q: numeric bodies need Submit", t.Tag)
		}
		if int(int32(t.Priority)) != t.Priority {
			return nil, fmt.Errorf("starpu: cannot record task %q: priority %d overflows int32", t.Tag, t.Priority)
		}
		nHandles += len(t.Handles)
		nPreds += int(t.npreds)
		nTag += len(t.Tag)
	}
	g := &Graph{
		key:       make([]int32, n),
		mode:      make([]int32, n),
		priority:  make([]int32, n),
		tagOff:    make([]int32, n+1),
		predOff:   make([]int32, n+1),
		predIdx:   make([]int32, 0, nPreds),
		handleIdx: make([]int32, 0, nHandles),
	}
	codelets := make(map[*Codelet]int32)
	keys := make(map[graphKey]int32)
	var tags strings.Builder
	tags.Grow(nTag)
	for i, t := range rt.tasks {
		c, ok := codelets[t.Codelet]
		if !ok {
			c = int32(len(g.codelets))
			codelets[t.Codelet] = c
			g.codelets = append(g.codelets, t.Codelet)
		}
		k := graphKey{codelet: c, footprint: t.Footprint(), work: t.Work}
		ki, ok := keys[k]
		if !ok {
			ki = int32(len(g.keys))
			keys[k] = ki
			g.keys = append(g.keys, k)
		}
		g.key[i] = ki
		m := slices.IndexFunc(g.modes, func(m []AccessMode) bool { return slices.Equal(m, t.Modes) })
		if m < 0 {
			m = len(g.modes)
			g.modes = append(g.modes, slices.Clip(slices.Clone(t.Modes)))
		}
		g.mode[i] = int32(m)
		g.priority[i] = int32(t.Priority)
		tags.WriteString(t.Tag)
		g.tagOff[i+1] = int32(tags.Len())
		for _, h := range t.Handles {
			g.handleIdx = append(g.handleIdx, h.id)
		}
		for _, d := range t.Dependencies() {
			g.predIdx = append(g.predIdx, int32(d.ID))
		}
		g.predOff[i+1] = int32(len(g.predIdx))
	}
	g.tags = tags.String()

	nh := len(rt.handles)
	g.bytes = make([]units.Bytes, nh)
	g.dimOff = make([]int32, nh+1)
	g.writer = make([]int32, nh)
	g.readerOff = make([]int32, nh+1)
	var nDims, nReaders int
	for _, h := range rt.handles {
		if h.data != nil {
			return nil, fmt.Errorf("starpu: cannot record handle %d: it carries a payload", h.id)
		}
		nDims += len(h.dims)
		nReaders += len(h.readers)
	}
	g.dims = make([]int, 0, nDims)
	g.readerIdx = make([]int32, 0, nReaders)
	for i, h := range rt.handles {
		g.bytes[i] = h.bytes
		g.dims = append(g.dims, h.dims...)
		g.dimOff[i+1] = int32(len(g.dims))
		g.writer[i] = -1
		if h.lastWriter != nil {
			g.writer[i] = int32(h.lastWriter.ID)
		}
		for _, r := range h.readers {
			g.readerIdx = append(g.readerIdx, int32(r.ID))
		}
		g.readerOff[i+1] = int32(len(g.readerIdx))
	}
	return g, nil
}

// SubmitGraph instantiates g into rt, which must have no tasks or
// handles yet.  The result is what submitting the recorded DAG through
// Register and Submit produces — same IDs, handles, edges (successors
// in ID order), estimate slots, observer events and scheduler pushes,
// and the same access history for later Submits — without allocating
// per task: tasks, handles, pointer lists and the runtime's indexes are
// carved from the runtime's arena (a private one unless it was built
// with Arena.New).
func (rt *Runtime) SubmitGraph(g *Graph) error {
	if len(rt.tasks) > 0 || len(rt.handles) > 0 {
		return fmt.Errorf("starpu: SubmitGraph needs an empty runtime, have %d tasks and %d handles",
			len(rt.tasks), len(rt.handles))
	}
	for _, c := range g.codelets {
		if !rt.anyCanRun(c) {
			return fmt.Errorf("starpu: no worker can run codelet %q", c.Name)
		}
	}
	slots := make([]int32, len(g.keys))
	for i, k := range g.keys {
		slots[i] = rt.internEstimate(estKey{codelet: g.codelets[k.codelet], footprint: k.footprint, work: k.work})
	}

	a := rt.arena
	n, nh := g.NumTasks(), len(g.bytes)
	a.tasks.expect(n)
	a.handles.expect(nh)
	a.taskPtrs.expect(n + 2*len(g.predIdx) + len(g.readerIdx))
	a.handlePtrs.expect(nh + len(g.handleIdx))
	rt.tasks = a.taskPtrs.take(n)[:0]
	rt.handles = a.handlePtrs.take(nh)[:0]
	for i := 0; i < nh; i++ {
		h := &a.handles.take(1)[0]
		lo, hi := g.dimOff[i], g.dimOff[i+1]
		*h = Handle{id: int32(i), bytes: g.bytes[i], dims: g.dims[lo:hi:hi], valid: 1}
		h.sizeID = rt.internSize(h.bytes)
		rt.handles = append(rt.handles, h)
	}

	// A task's edges hold its predecessors, then room for exactly its
	// successors, which Submit's order appends as each successor is
	// admitted.  Successor counts are the transpose of the predecessor
	// lists.
	succ := make([]int32, n)
	for _, p := range g.predIdx {
		succ[p]++
	}
	now := rt.machine.Engine().Now()
	next := 0 // next unread entry of g.handleIdx
	for i := 0; i < n; i++ {
		modes := g.modes[g.mode[i]]
		hs := a.handlePtrs.take(len(modes))
		for j := range hs {
			hs[j] = rt.handles[g.handleIdx[next+j]]
		}
		next += len(modes)
		preds := g.predIdx[g.predOff[i]:g.predOff[i+1]]
		edges := a.taskPtrs.take(len(preds) + int(succ[i]))
		for j, p := range preds {
			edges[j] = rt.tasks[p]
		}
		k := g.keys[g.key[i]]
		t := &a.tasks.take(1)[0]
		*t = Task{
			ID:           i,
			Codelet:      g.codelets[k.codelet],
			Handles:      hs,
			Modes:        modes,
			Priority:     int(g.priority[i]),
			Work:         k.work,
			Tag:          g.tags[g.tagOff[i]:g.tagOff[i+1]],
			WorkerID:     -1,
			SubmitT:      now,
			edges:        edges[:len(preds)],
			ndeps:        int32(len(preds)),
			npreds:       int32(len(preds)),
			estSlot:      slots[g.key[i]],
			footprintSet: true,
			footprint:    k.footprint,
		}
		for _, d := range t.Dependencies() {
			d.edges = append(d.edges, t)
		}
		rt.admit(t)
	}

	// Restore the access history, so a later Submit infers the
	// dependencies it would after the recorded submissions.
	for i, h := range rt.handles {
		if w := g.writer[i]; w >= 0 {
			h.lastWriter = rt.tasks[w]
		}
		if rs := g.readerIdx[g.readerOff[i]:g.readerOff[i+1]]; len(rs) > 0 {
			h.readers = a.taskPtrs.take(len(rs))
			for j, r := range rs {
				h.readers[j] = rt.tasks[r]
			}
		}
	}
	return nil
}

// recordMachine is the stub machine Record builds on: one CPU and one
// CUDA worker sharing host memory, free transfers, nothing ever run.
type recordMachine struct{ engine *eventsim.Engine }

func (m recordMachine) Engine() *eventsim.Engine { return m.engine }
func (recordMachine) NumWorkers() int            { return 2 }
func (recordMachine) WorkerClass(int) string     { return "record" }
func (recordMachine) NumNodes() int              { return 1 }

func (recordMachine) Worker(i int) WorkerInfo {
	if i == 0 {
		return WorkerInfo{Name: "cpu", Kind: CPUWorker}
	}
	return WorkerInfo{Name: "cuda", Kind: CUDAWorker}
}

func (recordMachine) CanRun(i int, c *Codelet) bool {
	if i == 0 {
		return c.CanCPU
	}
	return c.CanCUDA
}

func (recordMachine) Exec(int, *Task) units.Seconds                    { return 0 }
func (recordMachine) OnTaskStart(int, *Task)                           {}
func (recordMachine) OnTaskEnd(int, *Task)                             {}
func (recordMachine) TransferTime(int, int, units.Bytes) units.Seconds { return 0 }

func (recordMachine) ReserveLink(_, _ int, at units.Seconds, _ units.Bytes) (units.Seconds, units.Seconds) {
	return at, at
}
