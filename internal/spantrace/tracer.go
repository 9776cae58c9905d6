package spantrace

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/eventsim"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Model is the view of the machine the tracer needs for attribution:
// worker-to-device topology, the marginal power a task adds while it
// runs, the owning GPU's power state and the per-device idle baselines.
// *platform.Platform satisfies it structurally.
type Model interface {
	// WorkerGPU reports worker i's GPU index, -1 for CPU workers.
	WorkerGPU(i int) int
	// WorkerPackage reports the CPU socket hosting worker i's core.
	WorkerPackage(i int) int
	// SpanPower reports the exact marginal wattage the machine adds to
	// its meters while t runs on worker i under the current power state:
	// accelerator draw above idle, and the busy host core.
	SpanPower(i int, t *starpu.Task) (accel, host units.Watts)
	// GPULevel classifies GPU g's current cap as "L", "B" or "H".
	GPULevel(g int) string
	// IdleBaselines reports each device meter's static draw, keyed by
	// the meter names the energy counters use ("GPU0", "CPU1").
	IdleBaselines() map[string]units.Watts
}

// Tracer records one span per executed task.  It implements
// starpu.Observer; attach it via Config.Observer (tee with
// starpu.CombineObservers when telemetry is also on).  All callbacks
// fire from inside the single-threaded simulation loop, so the tracer
// needs no locking; one Tracer serves exactly one run.
type Tracer struct {
	model   Model
	rt      *starpu.Runtime
	t0      units.Seconds
	spans   []Span
	open    map[int]int    // task ID -> index into spans
	reasons map[int]string // task ID -> last scheduler decision reason
}

// spanPool recycles span backing arrays across tracers (one tracer per
// traced cell).  Ownership rule: Finalize copies the spans into the
// returned Trace and only then donates its emptied backing array; a
// recycled array re-enters service zero-length via NewTracer, so no
// stale span is ever visible.  The pool is gated by the same switch as
// the eventsim queue pool (eventsim.SetPooling) so the pooled-vs-
// unpooled property test flips every pool at once.
var spanPool sync.Pool // holds *[]Span

func getSpans() []Span {
	if !eventsim.PoolingEnabled() {
		return nil
	}
	if p, ok := spanPool.Get().(*[]Span); ok && p != nil {
		return (*p)[:0]
	}
	return nil
}

func putSpans(s []Span) {
	if !eventsim.PoolingEnabled() || cap(s) == 0 {
		return
	}
	s = s[:0]
	spanPool.Put(&s)
}

// NewTracer builds a tracer over the given machine model.
func NewTracer(model Model) *Tracer {
	return &Tracer{
		model:   model,
		spans:   getSpans(),
		open:    make(map[int]int),
		reasons: make(map[int]string),
	}
}

// Begin marks the start of the measured window.  Call it where the
// energy counters are read, immediately before Runtime.Run, so the
// static residual integrates over exactly the measured interval.
func (tr *Tracer) Begin(rt *starpu.Runtime) {
	tr.rt = rt
	tr.t0 = rt.Machine().Engine().Now()
}

// TaskSubmitted implements starpu.Observer.
func (tr *Tracer) TaskSubmitted(t *starpu.Task) {}

// SchedDecision implements starpu.Observer, keeping the placement
// reason so the span can explain why its task landed where it did.
func (tr *Tracer) SchedDecision(d starpu.Decision) {
	tr.reasons[d.Task.ID] = d.Reason
}

// TaskStarted implements starpu.Observer.  It opens the span and
// captures the power split and the owning GPU's level at start time —
// the same instant the machine raises its meters, so the recorded
// wattage is exactly what the meters integrate.
func (tr *Tracer) TaskStarted(workerID int, t *starpu.Task) {
	w := tr.rt.Machine().Worker(workerID)
	accel, host := tr.model.SpanPower(workerID, t)
	gpu := tr.model.WorkerGPU(workerID)
	level := "cpu"
	if gpu >= 0 {
		level = tr.model.GPULevel(gpu)
	}
	tr.open[t.ID] = len(tr.spans)
	tr.spans = append(tr.spans, Span{
		Task:        t.ID,
		Tag:         t.Tag,
		Codelet:     t.Codelet.Name,
		Worker:      workerID,
		WorkerName:  w.Name,
		Kind:        w.Kind.String(),
		GPU:         gpu,
		Package:     tr.model.WorkerPackage(workerID),
		Level:       level,
		Reason:      tr.reasons[t.ID],
		SubmitT:     t.SubmitT,
		ReadyT:      t.ReadyT,
		StartT:      t.StartT,
		AccelPowerW: accel,
		HostPowerW:  host,
	})
}

// TaskAborted implements starpu.AbortObserver, closing the span at the
// abort instant.  The machine's meters integrated the span's recorded
// power until exactly now, so keeping the truncated span attributed is
// what makes the energy reconciliation close under faults; the retry
// reopens a fresh span under the same task ID.  Attempts aborted during
// staging never opened a span (the meters were never raised) and are
// ignored.
func (tr *Tracer) TaskAborted(workerID int, t *starpu.Task) {
	i, ok := tr.open[t.ID]
	if !ok {
		return
	}
	delete(tr.open, t.ID)
	s := &tr.spans[i]
	s.EndT = tr.rt.Machine().Engine().Now()
	s.Aborted = true
}

// TaskCompleted implements starpu.Observer, closing the span.
func (tr *Tracer) TaskCompleted(workerID int, t *starpu.Task) {
	i, ok := tr.open[t.ID]
	if !ok {
		return
	}
	delete(tr.open, t.ID)
	s := &tr.spans[i]
	s.EndT = t.EndT
	s.TransferBytes = t.TransferBytes
}

// Finalize closes the measured window and assembles the Trace: spans in
// task-ID order, the causal edge set from the recorded DAG
// dependencies, and the per-device energy reconciliation against the
// measured counter deltas.  Call it where the closing counter reads
// happen, right after Runtime.Run returns.
func (tr *Tracer) Finalize(measured map[string]units.Joules) *Trace {
	t1 := tr.rt.Machine().Engine().Now()
	out := &Trace{T0: tr.t0, T1: t1}

	m := tr.rt.Machine()
	nGPU, nPkg := 0, 0
	out.Workers = make([]WorkerMeta, m.NumWorkers())
	for i := range out.Workers {
		wi := m.Worker(i)
		out.Workers[i] = WorkerMeta{ID: i, Name: wi.Name, Kind: wi.Kind.String()}
		nGPU = max(nGPU, tr.model.WorkerGPU(i)+1)
		nPkg = max(nPkg, tr.model.WorkerPackage(i)+1)
	}

	// Place the spans by task ID in one counting pass: task IDs index
	// rt.Tasks(), and spans were appended in start order, so a retried
	// task's attempts land in execution order — the (Task, StartT) order.
	tasks := tr.rt.Tasks()
	first := make([]int, len(tasks)+1) // first[id]: id's first slot
	for i := range tr.spans {
		first[tr.spans[i].Task+1]++
	}
	for id := range tasks {
		first[id+1] += first[id]
	}
	if len(tr.spans) > 0 {
		out.Spans = make([]Span, len(tr.spans))
	}
	for i := range tr.spans {
		id := tr.spans[i].Task
		out.Spans[first[id]] = tr.spans[i]
		first[id]++
	}
	putSpans(tr.spans) // the Trace owns the copy; the backing recycles
	tr.spans = nil

	// Causal edges from the DAG: each task's recorded predecessors are
	// already sorted by ID, and tasks are visited in ID order, so the
	// edge list comes out ordered by (To, From) with no extra sort.
	// Aborted attempts do not count as execution — only the span that
	// actually completed carries the dependency.
	executed := make([]bool, len(tasks))
	for i := range out.Spans {
		if !out.Spans[i].Aborted {
			executed[out.Spans[i].Task] = true
		}
	}
	nEdges := 0
	for _, t := range tasks {
		if executed[t.ID] {
			nEdges += len(t.Dependencies())
		}
	}
	if nEdges > 0 {
		out.Edges = make([]Edge, 0, nEdges)
	}
	for _, t := range tasks {
		if !executed[t.ID] {
			continue
		}
		for _, d := range t.Dependencies() {
			if executed[d.ID] {
				out.Edges = append(out.Edges, Edge{From: d.ID, To: t.ID})
			}
		}
	}

	// Per-device reconciliation: dynamic span energy per meter plus the
	// static baseline over the window.  The span sums run in span order,
	// as they always have, so they are bit-identical.
	window := t1 - tr.t0
	gpuJ, pkgJ := make([]units.Joules, nGPU), make([]units.Joules, nPkg)
	for i := range out.Spans {
		s := &out.Spans[i]
		if s.GPU >= 0 {
			gpuJ[s.GPU] += s.AccelEnergy()
		}
		pkgJ[s.Package] += s.HostEnergy()
	}
	spanJ := make(map[string]units.Joules, nGPU+nPkg)
	for g, e := range gpuJ {
		spanJ["GPU"+strconv.Itoa(g)] = e
	}
	for p, e := range pkgJ {
		spanJ["CPU"+strconv.Itoa(p)] = e
	}
	baselines := tr.model.IdleBaselines()
	names := make([]string, 0, len(baselines))
	for name := range baselines {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		out.Devices = make([]DeviceEnergy, 0, len(names))
	}
	for _, name := range names {
		out.Devices = append(out.Devices, DeviceEnergy{
			Device:    name,
			MeasuredJ: measured[name],
			SpanJ:     spanJ[name],
			StaticJ:   units.Energy(baselines[name], window),
		})
	}
	return out
}
