package starpu

import (
	"fmt"

	"repro/internal/units"
)

// CapacityModel is an optional Machine capability: bounded memory per
// node.  Nodes without a bound (the host) report 0.
type CapacityModel interface {
	// NodeCapacity reports node n's memory size in bytes (0 = unbounded).
	NodeCapacity(n int) units.Bytes
}

// nodeMemory tracks one bounded memory node: resident handles in LRU
// order, pin counts for handles used by in-flight tasks, the used byte
// count and, of those, the pinned byte count.  Per-handle state lives
// in a slice indexed by Handle.id, and the LRU order is an intrusive
// doubly linked list threaded through it, so residency updates neither
// hash nor allocate once the slice has grown to the handle count.
type nodeMemory struct {
	node     int
	capacity units.Bytes
	used     units.Bytes
	// pinned is the bytes of resident handles whose pin count is > 0.
	// touch, drop, pin and unpin keep it current, so canFit reads the
	// node's evictable bytes without walking the LRU list.
	pinned units.Bytes
	res    []residency
	// head is the least recently used resident handle id, tail the most
	// recent; -1 when the node holds nothing.
	head, tail int
}

// residency is one handle's state on a node.  prev and next link the
// LRU list and are meaningful only while resident.
type residency struct {
	h          *Handle
	pins       int
	resident   bool
	prev, next int
}

func newNodeMemory(node int, capacity units.Bytes) *nodeMemory {
	return &nodeMemory{node: node, capacity: capacity, head: -1, tail: -1}
}

// state reports h's entry, growing the table to cover h.
func (m *nodeMemory) state(h *Handle) *residency {
	id := int(h.id)
	if id >= len(m.res) {
		m.res = append(m.res, make([]residency, id+1-len(m.res))...)
	}
	r := &m.res[id]
	r.h = h
	return r
}

// peek reports h's entry without growing the table (zero if unseen).
func (m *nodeMemory) peek(h *Handle) residency {
	if int(h.id) < len(m.res) {
		return m.res[h.id]
	}
	return residency{}
}

// pushBack appends handle id to the LRU tail (most recent).
func (m *nodeMemory) pushBack(id int) {
	r := &m.res[id]
	r.prev, r.next = m.tail, -1
	if m.tail >= 0 {
		m.res[m.tail].next = id
	} else {
		m.head = id
	}
	m.tail = id
}

// unlink removes handle id from the LRU list.
func (m *nodeMemory) unlink(id int) {
	r := &m.res[id]
	if r.prev >= 0 {
		m.res[r.prev].next = r.next
	} else {
		m.head = r.next
	}
	if r.next >= 0 {
		m.res[r.next].prev = r.prev
	} else {
		m.tail = r.prev
	}
}

// touch marks h resident and most-recently used, accounting its bytes on
// first residency.
func (m *nodeMemory) touch(h *Handle) {
	r := m.state(h)
	if r.resident {
		if id := int(h.id); m.tail != id {
			m.unlink(id)
			m.pushBack(id)
		}
		return
	}
	r.resident = true
	m.pushBack(int(h.id))
	m.used += h.bytes
	if r.pins > 0 {
		m.pinned += h.bytes
	}
}

// drop removes h from the node's accounting.
func (m *nodeMemory) drop(h *Handle) {
	if !m.peek(h).resident {
		return
	}
	r := &m.res[h.id]
	m.unlink(int(h.id))
	r.resident = false
	m.used -= h.bytes
	if r.pins > 0 {
		m.pinned -= h.bytes
	}
}

// pin prevents h's eviction while a task uses it.  A write elsewhere
// can drop a pinned handle (dropInvalid), so pins may outlive
// residency; only resident bytes count towards pinned.
func (m *nodeMemory) pin(h *Handle) {
	r := m.state(h)
	if r.pins == 0 && r.resident {
		m.pinned += h.bytes
	}
	r.pins++
}

func (m *nodeMemory) unpin(h *Handle) {
	if m.peek(h).pins == 0 {
		return
	}
	r := &m.res[h.id]
	r.pins--
	if r.pins == 0 && r.resident {
		m.pinned -= h.bytes
	}
}

// canFit reports whether a working set can be staged right now: its
// missing bytes must fit into free plus evictable bytes, where
// evictable is every resident unpinned byte outside the working set
// itself.  The cost is O(len(hs)): evictable is used − pinned minus
// the working set's own resident unpinned bytes (each handle counted
// once).  Byte counts are integral and far below 2^53, so the float
// sums are exact and the result equals an LRU walk's in any order.
// Working sets are a handful of handles, so duplicates are found by
// scanning the slice instead of building a set.
func (m *nodeMemory) canFit(hs []*Handle) bool {
	var needed, ownEvictable units.Bytes
	for i, h := range hs {
		if containsHandle(hs[:i], h) {
			continue
		}
		if r := m.peek(h); !r.resident {
			needed += h.bytes
		} else if r.pins == 0 {
			ownEvictable += h.bytes
		}
	}
	free := m.capacity - m.used
	evictable := m.used - m.pinned - ownEvictable
	return needed <= free+evictable
}

// victim picks the least-recently-used unpinned resident handle, or nil.
func (m *nodeMemory) victim() *Handle {
	for id := m.head; id >= 0; id = m.res[id].next {
		if r := &m.res[id]; r.pins == 0 {
			return r.h
		}
	}
	return nil
}

// MemoryStats summarises the eviction activity of one run.
type MemoryStats struct {
	// Evictions counts handles pushed out of a bounded node.
	Evictions int
	// WritebackBytes counts bytes flushed to the host because the
	// evicted copy was the last valid one.
	WritebackBytes units.Bytes
}

// initMemory builds the per-node trackers when the machine bounds them.
func (rt *Runtime) initMemory() {
	cm, ok := rt.machine.(CapacityModel)
	if !ok {
		return
	}
	rt.memory = make([]*nodeMemory, rt.machine.NumNodes())
	for n := range rt.memory {
		if c := cm.NodeCapacity(n); c > 0 {
			rt.memory[n] = newNodeMemory(n, c)
		}
	}
}

// sizeResidency grows each bounded node's residency table to cover
// every registered handle at once, carved from the runtime's arena,
// instead of one handle id at a time as the run first touches them.
// Handles registered later still grow the table on demand
// (nodeMemory.state).
func (rt *Runtime) sizeResidency() {
	n, short := len(rt.handles), 0
	for _, m := range rt.memory {
		if m != nil && len(m.res) < n {
			short++
		}
	}
	rt.arena.residency.expect(n * short)
	for _, m := range rt.memory {
		if m != nil && len(m.res) < n {
			res := rt.arena.residency.take(n)
			copy(res, m.res)
			m.res = res
		}
	}
}

// memOn reports node's tracker, or nil when the node is unbounded.
func (rt *Runtime) memOn(node int) *nodeMemory {
	if node < len(rt.memory) {
		return rt.memory[node]
	}
	return nil
}

// ensureResident makes room for h on node (evicting LRU handles as
// needed) and accounts it resident.  It returns the virtual time when
// any eviction writebacks complete (start for the incoming transfer).
// Bounded-node overflow by a single working set larger than the device
// panics: the workload cannot run, matching a CUDA OOM.
func (rt *Runtime) ensureResident(h *Handle, node int, from units.Seconds) units.Seconds {
	mem := rt.memOn(node)
	if mem == nil {
		return from
	}
	if mem.peek(h).resident {
		mem.touch(h)
		return from
	}
	if h.bytes > mem.capacity {
		panic(fmt.Sprintf("starpu: handle of %v exceeds node %d capacity %v", h.bytes, node, mem.capacity))
	}
	ready := from
	for mem.used+h.bytes > mem.capacity {
		v := mem.victim()
		if v == nil {
			panic(fmt.Sprintf("starpu: node %d out of memory: %v used of %v, all pinned",
				node, mem.used, mem.capacity))
		}
		// If this node holds the last valid copy, write it back to the
		// host before dropping it.
		if v.valid.has(node) && v.valid.count() == 1 {
			_, end := rt.machine.ReserveLink(node, 0, from, v.bytes)
			if end > ready {
				ready = end
			}
			v.valid.set(0)
			rt.memStats.WritebackBytes += v.bytes
		}
		v.valid.clear(node)
		mem.drop(v)
		rt.memStats.Evictions++
	}
	mem.touch(h)
	return ready
}

// pinHandles pins a task's working set on its node for the task's
// lifetime.
func (rt *Runtime) pinHandles(t *Task, node int) {
	mem := rt.memOn(node)
	if mem == nil {
		return
	}
	for _, h := range t.Handles {
		mem.pin(h)
	}
}

// unpinHandles releases the pins at task completion.
func (rt *Runtime) unpinHandles(t *Task, node int) {
	mem := rt.memOn(node)
	if mem == nil {
		return
	}
	for _, h := range t.Handles {
		mem.unpin(h)
	}
}

// dropInvalid removes h from node accounting after a write elsewhere
// invalidated its copy.
func (rt *Runtime) dropInvalid(h *Handle, node int) {
	if mem := rt.memOn(node); mem != nil {
		mem.drop(h)
	}
}

// canFit reports whether t's working set can be staged on node right
// now (see nodeMemory.canFit).  Unbounded nodes always fit.
func (rt *Runtime) canFit(t *Task, node int) bool {
	mem := rt.memOn(node)
	if mem == nil {
		return true
	}
	return mem.canFit(t.Handles)
}

// containsHandle reports whether h appears in hs (identity match).
func containsHandle(hs []*Handle, h *Handle) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// assertCouldFit panics when t's deduplicated working set exceeds the
// node outright — the simulation equivalent of a CUDA out-of-memory.
func (rt *Runtime) assertCouldFit(t *Task, node int) {
	mem := rt.memOn(node)
	if mem == nil {
		return
	}
	var total units.Bytes
	for i, h := range t.Handles {
		if !containsHandle(t.Handles[:i], h) {
			total += h.bytes
		}
	}
	if total > mem.capacity {
		panic(fmt.Sprintf("starpu: task %q working set %v exceeds node %d capacity %v",
			t.Tag, total, node, mem.capacity))
	}
}

// MemoryStats reports the run's eviction activity.
func (rt *Runtime) MemoryStats() MemoryStats { return rt.memStats }

// NodeUsage reports the bytes resident on a bounded node (0 for
// unbounded nodes).
func (rt *Runtime) NodeUsage(node int) units.Bytes {
	if mem := rt.memOn(node); mem != nil {
		return mem.used
	}
	return 0
}
