package starpu

import "unsafe"

// Arena owns the storage a runtime carves a DAG from: SubmitGraph's
// Task and Handle values, pointer lists (a task's handles, its edges, a
// handle's readers) and task and handle indexes, the rows of the
// estimate table and the bounded nodes' residency tables.  Every
// runtime built over one arena (Arena.New) carves from it in turn, and
// Reset makes all of it reusable, so a goroutine that keeps one arena
// across the cells of a sweep stops allocating a DAG per cell.  New
// gives each runtime a private arena.
//
// Ownership rule: Reset only when nothing will read any runtime built
// over the arena again, nor any Task or Handle one of them handed out.
// A runtime that outlives its cell — one returned to a caller, held by
// a telemetry sampler or a cap controller, or reachable through an
// error such as *PermanentFaultError — keeps its arena.  Reset zeroes
// everything carved, so an arena at rest references no Graph and no
// task of its last cell.
type Arena struct {
	tasks      slab[Task]
	handles    slab[Handle]
	taskPtrs   slab[*Task]
	handlePtrs slab[*Handle]
	estimates  slab[estVal]
	residency  slab[residency]
}

// New builds a runtime over machine, as the package-level New does,
// that carves from a.
func (a *Arena) New(machine Machine, cfg Config) (*Runtime, error) {
	return newRuntime(machine, cfg, a)
}

// Tasks reports how many tasks the arena's chunks hold, which is the
// most the runtimes built over it carved between two Resets.
func (a *Arena) Tasks() int {
	n := 0
	for _, c := range a.tasks.chunks {
		n += len(c)
	}
	return n
}

// Reset zeroes everything carved since the last Reset and makes it
// available to the next runtimes built over a (see the ownership rule).
func (a *Arena) Reset() {
	a.tasks.reset()
	a.handles.reset()
	a.taskPtrs.reset()
	a.handlePtrs.reset()
	a.estimates.reset()
	a.residency.reset()
}

// chunkBytes bounds one storage chunk: the largest allocation Go still
// serves from size-classed spans.  One slab per runtime instead puts
// each cell's whole DAG in a single large object, which measured ~2 MB
// more peak RSS per process (DESIGN §14).
const chunkBytes = 32 << 10

// slab carves slices of T out of chunks of chunkBytes (a request larger
// than a chunk gets a chunk of its own) and keeps every chunk, so after
// reset the same memory is carved again.  Until its first reset a slab
// serves one DAG, and left, set by expect, counts the elements still to
// be carved, so a chunk it allocates is no larger than needed.  Once
// reset, it serves DAGs of other sizes, so its new chunks are whole: a
// tail sized to one DAG would be too small for the next.  Carved slices
// are clipped to their length: appending to one reallocates instead of
// writing into its neighbour.
type slab[T any] struct {
	chunks [][]T // in carving order
	next   int   // chunks[:next] have been carved from since the last reset
	free   []T   // the uncarved rest of chunks[next-1]
	left   int
	reused bool // reset at least once
}

// expect announces that the next takes carve n elements in all.
func (s *slab[T]) expect(n int) { s.left = n }

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		if s.next == len(s.chunks) || len(s.chunks[s.next]) < n {
			var zero T
			size := max(1, chunkBytes/int(unsafe.Sizeof(zero)))
			if !s.reused {
				size = min(s.left, size)
			}
			c := make([]T, max(n, size))
			if s.next == len(s.chunks) {
				s.chunks = append(s.chunks, c)
			} else {
				s.chunks[s.next] = c // too small for this take: replaced
			}
		}
		s.free = s.chunks[s.next]
		s.next++
	}
	c := s.free[:n:n]
	s.free = s.free[n:]
	s.left -= n
	return c
}

// reset zeroes the chunks carved from since the last reset, so no
// stale pointer survives in them, and rewinds to the first chunk.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.next] {
		clear(c)
	}
	s.next, s.free, s.left, s.reused = 0, nil, 0, true
}
