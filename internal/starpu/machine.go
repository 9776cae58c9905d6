package starpu

import (
	"repro/internal/eventsim"
	"repro/internal/units"
)

// WorkerKind distinguishes CPU cores from CUDA devices.
type WorkerKind int

// Worker kinds.
const (
	CPUWorker WorkerKind = iota
	CUDAWorker
)

// String reports "cpu" or "cuda".
func (k WorkerKind) String() string {
	if k == CUDAWorker {
		return "cuda"
	}
	return "cpu"
}

// WorkerInfo describes one processing unit of a machine.
type WorkerInfo struct {
	// Name labels the worker ("cpu03", "cuda1").
	Name string
	// Kind is CPU or CUDA.
	Kind WorkerKind
	// Node is the memory node the worker computes from (0 = host RAM,
	// 1..N = device memories).
	Node int
}

// Machine abstracts the simulated hardware under the runtime: worker
// inventory, kernel costing, power bookkeeping and the interconnect.
// The platform package provides the implementation.
type Machine interface {
	// Engine exposes the discrete-event clock the machine's power meters
	// are bound to.
	Engine() *eventsim.Engine

	// NumWorkers reports the processing-unit count.
	NumWorkers() int
	// Worker describes worker i.
	Worker(i int) WorkerInfo
	// WorkerClass reports the performance-model class of worker i,
	// embedding its current power state (e.g. "cuda0@216W"); the string
	// changes when the device's cap changes, which is what lets
	// recalibration inform the scheduler.
	WorkerClass(i int) string
	// CanRun reports whether worker i can execute the codelet.
	CanRun(i int, c *Codelet) bool
	// Exec reports the compute duration of t on worker i under the
	// device's current power state.
	Exec(i int, t *Task) units.Seconds
	// OnTaskStart and OnTaskEnd bracket the compute phase for power
	// accounting.
	OnTaskStart(i int, t *Task)
	OnTaskEnd(i int, t *Task)

	// NumNodes reports the memory-node count (node 0 is host RAM).
	NumNodes() int
	// TransferTime estimates moving b bytes from one node to another
	// with no contention (used by dmda's completion-time estimates).  It
	// must be pure — a function of (from, to, b) alone, independent of
	// link reservations and power state — because the runtime caches it
	// per (byte size, source, destination) for the machine's lifetime.
	TransferTime(from, to int, b units.Bytes) units.Seconds
	// ReserveLink books the link for an actual transfer starting no
	// earlier than at, returning the granted interval (contention
	// included).
	ReserveLink(from, to int, at units.Seconds, b units.Bytes) (start, end units.Seconds)
}

// DomainModel is an optional Machine capability: the power domain each
// worker draws from (a GPU board, a CPU socket).  Workers reporting the
// same domain, Kind and Node must always return equal WorkerClass and
// CanRun (and, under PowerModel, equal ExecPower), so the dm-family
// schedulers score a push once per such group instead of once per
// worker.  A machine without it gets one group per worker.
type DomainModel interface {
	// Domain reports worker i's power-domain index.
	Domain(i int) int
}
