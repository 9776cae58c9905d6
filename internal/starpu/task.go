// Package starpu reimplements the core of the StarPU task-based runtime
// system the paper builds on: data handles with MSI coherence across
// memory nodes, implicit dependency inference from data access order
// (sequential consistency), history-based performance models and the
// dequeue-model scheduler family (dm, dmda, dmdas) next to baseline
// policies (eager, random, work stealing).
//
// Applications submit tasks against data handles; the runtime executes
// the DAG either in virtual time on a simulated machine (for the energy
// experiments) or numerically on host goroutines (for correctness
// validation of the same DAG).
package starpu

import (
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/prec"
	"repro/internal/units"
)

// AccessMode declares how a task uses one of its handles.
type AccessMode int

// Access modes, mirroring StarPU's STARPU_R / STARPU_W / STARPU_RW.
const (
	R AccessMode = iota
	W
	RW
)

// String reports "R", "W" or "RW".
func (m AccessMode) String() string {
	switch m {
	case R:
		return "R"
	case W:
		return "W"
	case RW:
		return "RW"
	}
	return fmt.Sprintf("AccessMode(%d)", int(m))
}

func (m AccessMode) writes() bool { return m == W || m == RW }
func (m AccessMode) reads() bool  { return m == R || m == RW }

// Codelet describes a kernel: where it can run and how the machine
// model should cost it.
type Codelet struct {
	// Name keys the performance model ("dgemm", "spotrf", ...).
	Name string
	// Precision selects the device performance curves.
	Precision prec.Precision
	// CanCPU / CanCUDA restrict eligible worker kinds.
	CanCPU, CanCUDA bool
	// GPUEfficiency and CPUEfficiency derate the device's GEMM-class
	// rate for this kernel (1 = GEMM-like; panel factorisations lower).
	// Zero means 1.
	GPUEfficiency, CPUEfficiency float64
}

// Task is one node of the application DAG.
type Task struct {
	// ID is assigned at submission, in submission order.
	ID int
	// Codelet is the kernel this task runs.
	Codelet *Codelet
	// Handles and Modes list the data accesses (parallel slices).
	Handles []*Handle
	Modes   []AccessMode
	// Priority orders tasks in priority-aware schedulers (higher first);
	// Chameleon sets these per algorithm step.
	Priority int
	// Work is the task's flop count, used by the machine model and the
	// regression performance model.
	Work units.Flops
	// Func is the optional numeric body run by RunNumeric.
	Func func() error
	// Tag is a free-form label for traces ("gemm(2,3,1)").
	Tag string
	// DependsOn adds explicit predecessors on top of the implicit
	// data-driven ones (StarPU's starpu_task_declare_deps).
	DependsOn []*Task
	// OnComplete, when set, fires inside the simulation loop right
	// after the task finishes (progress reporting, chained submission).
	OnComplete func(*Task)

	// Retries counts failed execution attempts (fault injection or
	// worker eviction mid-compute); 0 on a clean run.
	Retries int

	// Placement results (filled by the simulated run).
	WorkerID      int
	SubmitT       units.Seconds
	ReadyT        units.Seconds
	StartT        units.Seconds // compute start (transfers done)
	EndT          units.Seconds
	TransferBytes units.Bytes

	// Runtime-owned state, packed so a Task fits the 256-byte size
	// class: a cell's whole DAG is live at once.
	//
	// edges holds the dependencies (the first npreds entries, ascending
	// ID) followed by the successors still waiting on t; ndeps counts
	// t's own unfinished dependencies.
	edges  []*Task
	ndeps  int32
	npreds int32
	// estSlot indexes the runtime's estimate table (Runtime.estRows),
	// interned from (codelet, footprint, work) at Submit.
	estSlot int32
	// footprint memoizes Footprint(): handle geometry is immutable after
	// registration, and Submit, estimate misses and every completion ask
	// for it.
	footprintSet bool
	footprint    uint64
	// Fault/recovery state.  attempt is the execution-attempt
	// generation: every abort or eviction bumps it, and events scheduled
	// for an earlier attempt no-op.  powerOn tracks whether the
	// machine's meters are currently raised for this task.
	attempt int
	powerOn bool
	done    bool
}

// Duration reports the task's compute time in the simulated run.
func (t *Task) Duration() units.Seconds { return t.EndT - t.StartT }

// Successors reports the tasks depending on t (read-only; used by the
// trace package's critical-path analysis).
func (t *Task) Successors() []*Task { return t.edges[t.npreds:] }

// Dependencies reports t's predecessors in ascending ID order — every
// task t waited on at submission, including ones already complete by
// then (which Successors, pruned to live edges, cannot recover).  The
// spantrace package reads these to build the causal edge set.
func (t *Task) Dependencies() []*Task { return t.edges[:t.npreds:t.npreds] }

// Footprint hashes the task's buffer geometry, mirroring StarPU's
// per-size history buckets.  The hash is computed once per task.
func (t *Task) Footprint() uint64 {
	if t.footprintSet {
		return t.footprint
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, hd := range t.Handles {
		for _, d := range hd.dims {
			put(uint64(d))
		}
	}
	t.footprint = h.Sum64()
	t.footprintSet = true
	return t.footprint
}

// maxNodes bounds a machine's memory-node count: nodeSet is one uint64.
const maxNodes = 64

// nodeSet is a bitset of memory-node indices.  The runtime supports at
// most maxNodes nodes (enforced at construction); real platforms have a
// handful.  Coherence checks against this set run on every staging
// decision, transfer estimate and locality score, where the previous
// map-backed set was the top entry of the cell CPU profile.
type nodeSet uint64

func (s nodeSet) has(n int) bool { return s&(1<<uint(n)) != 0 }
func (s *nodeSet) set(n int)     { *s |= 1 << uint(n) }
func (s *nodeSet) clear(n int)   { *s &^= 1 << uint(n) }
func (s nodeSet) count() int     { return bits.OnesCount64(uint64(s)) }

// Handle is a registered piece of data (a matrix tile).  Its access
// history drives implicit dependency inference, and its per-node
// validity set implements MSI coherence during the simulated run.
type Handle struct {
	id int32
	// sizeID indexes the runtime's transfer table (Runtime.ttab).  It
	// shares a word with id, keeping Handle in its 96-byte size class.
	sizeID int32
	bytes  units.Bytes
	dims   []int
	data   interface{}

	// valid holds the nodes with an up-to-date copy.
	valid nodeSet

	// Sequential-consistency bookkeeping.
	lastWriter *Task
	readers    []*Task
}

// Bytes reports the handle's size.
func (h *Handle) Bytes() units.Bytes { return h.bytes }

// Dims reports the registered dimensions.
func (h *Handle) Dims() []int { return h.dims }

// Data reports the host payload registered with the handle (may be nil).
func (h *Handle) Data() interface{} { return h.data }

// ValidOn reports whether node n holds an up-to-date copy.
func (h *Handle) ValidOn(n int) bool { return h.valid.has(n) }

// ValidNodes lists nodes holding up-to-date copies, in ascending order.
func (h *Handle) ValidNodes() []int {
	out := make([]int, 0, h.valid.count())
	for s := uint64(h.valid); s != 0; s &= s - 1 {
		out = append(out, bits.TrailingZeros64(s))
	}
	return out
}
