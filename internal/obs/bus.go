// Package obs is the live observability plane for long-running sweeps:
// a bounded, non-blocking structured event bus fed from the executor
// and the deep runtime seams (cap applicator, circuit breaker, worker
// eviction, checkpoint journal), a progress/ETA tracker built on top of
// it, and an on-demand CPU profiler for stalled cells.
//
// Determinism boundary: everything published on the bus is an
// *observation* of the simulation, never an input to it.  Events carry
// virtual time from deterministic sources (cell makespans, engine
// clocks); wall-clock enters only at the server edge — the progress
// tracker's arrival stamps, SSE heartbeats — where it can no longer
// influence a Result.  Publishing never blocks and never fails: a
// subscriber that cannot keep up loses its *oldest* buffered events
// (counted, surfaced as capsim_obs_dropped_total), so a stalled curl
// can never stall a pool worker.  The package imports only the standard
// library, so every layer of the repo can publish into it without
// dependency cycles.
package obs

import (
	"sync"
	"sync/atomic"
)

// EventType names one structured event class on the bus.
type EventType string

// The typed events the observability plane carries.  Cell* events and
// CheckpointCommitted (one per durable journal record) are published by
// the sweep executor; the deeper classes are published by core.Run when
// a cell's run returns, from what the platform's cap applicator
// (CapRetryExhausted), the cap-write circuit breaker (BreakerTripped)
// and the runtime's eviction path (WorkerEvicted) recorded.
// SweepStarted is the meta event that carries totals so progress
// trackers can compute completion fractions and ETAs.
const (
	SweepStarted        EventType = "SweepStarted"
	CellStarted         EventType = "CellStarted"
	CellFinished        EventType = "CellFinished"
	CellHung            EventType = "CellHung"
	CellPanicked        EventType = "CellPanicked"
	CellResumed         EventType = "CellResumed"
	CapRetryExhausted   EventType = "CapRetryExhausted"
	BreakerTripped      EventType = "BreakerTripped"
	WorkerEvicted       EventType = "WorkerEvicted"
	CheckpointCommitted EventType = "CheckpointCommitted"
	DegradedRun         EventType = "DegradedRun"

	// Sweep-service events (internal/sweepd): the coordinator publishes
	// worker lifecycle (WorkerJoined/WorkerLost), lease churn
	// (LeaseGranted/LeaseExpired), straggler work-stealing (CellStolen)
	// and poisoned-cell quarantine (CellQuarantined).  Detail carries the
	// worker id — service workers are processes named by the supervisor,
	// not the simulation's integer device workers.
	WorkerJoined    EventType = "WorkerJoined"
	WorkerLost      EventType = "WorkerLost"
	LeaseGranted    EventType = "LeaseGranted"
	LeaseExpired    EventType = "LeaseExpired"
	CellStolen      EventType = "CellStolen"
	CellQuarantined EventType = "CellQuarantined"

	// Multi-tenant queue events (internal/sweepd): a job entering the
	// coordinator's durable queue (JobQueued), being cancelled mid-queue
	// or mid-flight (JobCancelled), or being restored from the state
	// journal after a coordinator restart (JobResumed).  Detail carries
	// "<job id> (<name>)".
	JobQueued    EventType = "JobQueued"
	JobCancelled EventType = "JobCancelled"
	JobResumed   EventType = "JobResumed"
)

// Event is one observation.  Seq is assigned by the bus at publish
// time and totally orders the stream; SimTime is virtual seconds from
// the deterministic simulation clock (a cell's makespan, an eviction's
// engine time) — wall-clock is deliberately absent and is stamped only
// at the server edge by consumers that need it.
type Event struct {
	// Seq is the bus-assigned publish sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Type is the event class.
	Type EventType `json:"type"`
	// Cell is the cell's stable identity (core.CheckpointKey) for
	// cell-scoped events.
	Cell string `json:"cell,omitempty"`
	// Plan and Workload are the cell's grid coordinates, denormalised so
	// subscribers need no side lookup.
	Plan     string `json:"plan,omitempty"`
	Workload string `json:"workload,omitempty"`
	// SimTime is deterministic virtual seconds: a CellFinished event
	// carries the cell's makespan, a WorkerEvicted/BreakerTripped event
	// the engine time of the fault.
	SimTime float64 `json:"sim_time_s,omitempty"`
	// Efficiency is the finished cell's Gflop/s/W (CellFinished only).
	Efficiency float64 `json:"gflops_per_w,omitempty"`
	// GPU / Worker identify the device for fault-class events (-1 when
	// not applicable; omitted from JSON via the pointer-free convention
	// of using the Detail field for prose).
	GPU    int `json:"gpu,omitempty"`
	Worker int `json:"worker,omitempty"`
	// Total and PlanTotals size a sweep (SweepStarted only): how many
	// cells the executor will run, overall and per plan.
	Total      int            `json:"total,omitempty"`
	PlanTotals map[string]int `json:"plan_totals,omitempty"`
	// Status carries the checkpoint record status for
	// CheckpointCommitted events ("done", "hung", ...).
	Status string `json:"status,omitempty"`
	// Detail is short prose: an error summary, an eviction reason, a
	// degraded surviving plan.
	Detail string `json:"detail,omitempty"`
}

// Bus is the bounded, non-blocking publish side.  A nil *Bus is a
// valid no-op publisher, so instrumented code can publish
// unconditionally.
type Bus struct {
	mu        sync.Mutex
	seq       uint64
	subs      []*Subscriber
	published atomic.Uint64
	dropped   atomic.Uint64
	onDrop    func(n int)
	onPublish func(t EventType)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// SetOnDrop installs a hook called with the number of events dropped
// each time a subscriber overflows (telemetry wires this to
// capsim_obs_dropped_total).  The hook runs on the publishing
// goroutine and must be cheap and non-blocking.
func (b *Bus) SetOnDrop(fn func(n int)) {
	b.mu.Lock()
	b.onDrop = fn
	b.mu.Unlock()
}

// SetOnPublish installs a hook called once per published event with
// its type (telemetry wires this to capsim_obs_events_total).  Same
// constraints as SetOnDrop.
func (b *Bus) SetOnPublish(fn func(t EventType)) {
	b.mu.Lock()
	b.onPublish = fn
	b.mu.Unlock()
}

// Publish assigns the event its sequence number and offers it to every
// subscriber.  It never blocks: a full subscriber ring drops its
// oldest event to make room (counted per subscriber and bus-wide).
// Safe for concurrent use from any goroutine, including pool workers
// mid-simulation.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	subs := b.subs
	onDrop, onPublish := b.onDrop, b.onPublish
	b.mu.Unlock()

	b.published.Add(1)
	dropped := 0
	for _, s := range subs {
		if s.offer(ev) {
			dropped++
		}
	}
	if dropped > 0 {
		b.dropped.Add(uint64(dropped))
		if onDrop != nil {
			onDrop(dropped)
		}
	}
	if onPublish != nil {
		onPublish(ev.Type)
	}
}

// Published reports the total number of events published.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Dropped reports the total events dropped across all subscribers.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribers reports how many subscribers are currently registered —
// the live-consumer gauge the SSE handler's leak tests assert on (a
// client that disconnects must bring this back down).
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a new subscriber with a ring of the given
// capacity (minimum 1; <= 0 gets a default of 256).  The subscriber
// sees every event published after the call, minus whatever its ring
// had to drop while it lagged.
func (b *Bus) Subscribe(buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscriber{
		bus:    b,
		ring:   make([]Event, buffer),
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// unsubscribe removes s; idempotent.
func (b *Bus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// Subscriber is one bounded consumer of the bus.  Readers drain with
// Drain (non-blocking) and park on Wait between drains; a reader that
// stops draining loses its oldest events, never the publisher's time.
type Subscriber struct {
	bus    *Bus
	notify chan struct{}

	mu      sync.Mutex
	ring    []Event
	head    int // index of oldest buffered event
	n       int // buffered count
	dropped uint64
	closed  bool
}

// offer appends the event, dropping the oldest on overflow; reports
// whether a drop happened.  Never blocks.
func (s *Subscriber) offer(ev Event) (droppedOne bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.n == len(s.ring) {
		// Drop-oldest: the freshest view of a live sweep is worth more
		// than a complete-but-stale one, and the gap is visible (Seq
		// jumps, Dropped counts).
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
		droppedOne = true
	}
	s.ring[(s.head+s.n)%len(s.ring)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return droppedOne
}

// Drain returns and clears everything buffered, in publish order.  It
// never blocks; an empty ring returns nil.
func (s *Subscriber) Drain() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]Event, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.head, s.n = 0, 0
	return out
}

// Wait returns a channel that receives a token when new events arrive
// after the last Drain.  One token may cover many events: drain, then
// wait, in a loop.
func (s *Subscriber) Wait() <-chan struct{} { return s.notify }

// Dropped reports how many events this subscriber's ring discarded.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unsubscribes; further publishes no longer reach the ring.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bus.unsubscribe(s)
}
