// Package eventsim implements the discrete-event core of the simulator:
// a virtual clock, a deterministic event queue and power integrators that
// turn piecewise-constant power traces into exact energy figures.
//
// The engine is deliberately single-threaded: HPC runs are simulated in
// virtual time, so determinism and reproducibility matter more than host
// parallelism.  Events scheduled for the same timestamp fire in FIFO
// order of scheduling, which makes every simulation replayable.
package eventsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// Handler receives typed events: Fire is called with the argument the
// event was scheduled with.  A handler that decodes its state from arg
// lets a hot path schedule events without building a closure per event.
type Handler interface {
	Fire(arg uint64)
}

// funcHandler adapts a plain callback to Handler.  A func value is
// pointer-shaped, so converting it to the interface allocates nothing.
type funcHandler func()

func (f funcHandler) Fire(uint64) { f() }

// event is a handler and its argument scheduled to fire at a virtual
// timestamp.  It is stored by value in the queue: scheduling allocates
// nothing per event, only (rarely) to grow the backing array.
type event struct {
	at  units.Seconds
	seq uint64
	h   Handler
	arg uint64
}

// eventQueue is a slice-backed binary min-heap ordered by (time,
// insertion sequence).  That key is a strict total order — no two
// events compare equal — so the pop sequence is a pure function of the
// pushed set and the internal heap layout can never affect simulation
// order (the replayability contract of the package).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// poolingEnabled gates the backing-array pools (here and in spantrace).
// It exists for the pooled-vs-unpooled property test: disabling pools
// must not change a single output bit.
var poolingEnabled atomic.Bool

func init() { poolingEnabled.Store(true) }

// SetPooling toggles backing-array recycling; it returns the previous
// setting.  Test-only: flipping it mid-simulation is safe (the queue
// just stops/starts recycling) but it is global, so tests that disable
// pooling must not run in parallel with tests that assume it.
func SetPooling(enabled bool) bool { return poolingEnabled.Swap(enabled) }

// PoolingEnabled reports whether backing-array recycling is on.
func PoolingEnabled() bool { return poolingEnabled.Load() }

// queuePool recycles event-queue backing arrays across engines (one
// engine per simulated cell, so a sweep would otherwise regrow the
// array once per cell).  Ownership rule: an array enters the pool only
// via Engine recycling a fully drained queue — length zero, so no handler
// references survive — and leaves it zero-length via Schedule.
var queuePool sync.Pool // holds *eventQueue

func getQueue() eventQueue {
	if !poolingEnabled.Load() {
		return nil
	}
	if p, ok := queuePool.Get().(*eventQueue); ok && p != nil {
		return (*p)[:0]
	}
	return nil
}

func putQueue(q eventQueue) {
	if !poolingEnabled.Load() || cap(q) == 0 {
		return
	}
	q = q[:0]
	queuePool.Put(&q)
}

// Engine is a discrete-event simulation loop.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    units.Seconds
	seq    uint64
	events eventQueue
	// Meters registered with the engine are finalised by Run so their
	// energy integrals extend to the end of simulated time.
	meters []*PowerMeter
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// At schedules fn to run at absolute virtual time t.  Scheduling in the
// past panics: it would silently corrupt causality.
func (e *Engine) At(t units.Seconds, fn func()) { e.Schedule(t, funcHandler(fn), 0) }

// Schedule queues h.Fire(arg) at absolute virtual time t.  Typed and
// closure events share one queue and one (time, sequence) order, so
// same-time events fire in scheduling order whatever their kind.
func (e *Engine) Schedule(t units.Seconds, h Handler, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(float64(t)) {
		panic("eventsim: scheduling event at NaN time")
	}
	if e.events == nil {
		e.events = getQueue()
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, h: h, arg: arg})
	e.events.siftUp(len(e.events) - 1)
}

// After schedules fn to run dt after the current time.
func (e *Engine) After(dt units.Seconds, fn func()) {
	if dt < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", dt))
	}
	e.At(e.now+dt, fn)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Step fires the earliest event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	n := len(e.events)
	if n == 0 {
		return false
	}
	ev := e.events[0]
	e.events[0] = e.events[n-1]
	e.events[n-1] = event{} // drop the handler reference for GC
	e.events = e.events[:n-1]
	if n > 2 {
		e.events.siftDown(0)
	}
	e.now = ev.at
	ev.h.Fire(ev.arg)
	return true
}

// recycle returns a drained queue's backing array to the pool.  Only a
// zero-length queue ever enters the pool, so recycled arrays carry no
// live events and re-pushing after recycling starts from a clean slate.
func (e *Engine) recycle() {
	if len(e.events) == 0 && e.events != nil {
		putQueue(e.events)
		e.events = nil
	}
}

// Run fires events until the queue drains, then closes all registered
// power meters at the final timestamp.  It returns the end time.
func (e *Engine) Run() units.Seconds {
	for e.Step() {
	}
	e.recycle()
	for _, m := range e.meters {
		m.sync(e.now)
	}
	return e.now
}

// RunUntil fires events with timestamps <= deadline.  Events beyond the
// deadline stay queued.  The clock lands exactly on the deadline.
func (e *Engine) RunUntil(deadline units.Seconds) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	e.recycle()
	if e.now < deadline {
		e.now = deadline
	}
	for _, m := range e.meters {
		m.sync(e.now)
	}
}

// NewMeter creates a power meter bound to this engine's clock, starting
// at the given baseline power (typically the device's idle draw).
func (e *Engine) NewMeter(name string, baseline units.Watts) *PowerMeter {
	m := &PowerMeter{name: name, engine: e, power: baseline, lastT: e.now}
	e.meters = append(e.meters, m)
	return m
}

// PowerSample is one step of a recorded power trace: the meter held
// Power from time T until the next sample's T.
type PowerSample struct {
	T     units.Seconds
	Power units.Watts
}

// PowerMeter integrates a piecewise-constant power trace into energy.
// Every SetPower call closes the previous constant segment.
type PowerMeter struct {
	name   string
	engine *Engine
	power  units.Watts
	lastT  units.Seconds
	energy units.Joules
	peak   units.Watts

	tracing bool
	trace   []PowerSample
}

// Name reports the meter's label (used in energy-split reports).
func (m *PowerMeter) Name() string { return m.name }

// SetPower changes the instantaneous power from now on.
func (m *PowerMeter) SetPower(p units.Watts) {
	m.sync(m.engine.now)
	m.power = p
	if p > m.peak {
		m.peak = p
	}
	if m.tracing {
		m.trace = append(m.trace, PowerSample{T: m.engine.now, Power: p})
	}
}

// EnableTrace starts recording every power step (exact, event-driven —
// not sampled), beginning with the current level.
func (m *PowerMeter) EnableTrace() {
	if !m.tracing {
		m.tracing = true
		m.trace = append(m.trace, PowerSample{T: m.engine.now, Power: m.power})
	}
}

// Trace reports the recorded power steps (nil unless EnableTrace ran).
func (m *PowerMeter) Trace() []PowerSample { return m.trace }

// Now reports the meter's clock (the engine's virtual time), letting
// consumers evaluate time-dependent models such as thermal RC curves.
func (m *PowerMeter) Now() units.Seconds { return m.engine.Now() }

// AddPower adjusts the instantaneous power by delta (may be negative).
func (m *PowerMeter) AddPower(delta units.Watts) {
	m.SetPower(m.power + delta)
}

// Power reports the current instantaneous power.
func (m *PowerMeter) Power() units.Watts {
	return m.power
}

// Peak reports the maximum instantaneous power seen so far.
func (m *PowerMeter) Peak() units.Watts { return m.peak }

// Energy reports the energy integrated up to the engine's current time.
func (m *PowerMeter) Energy() units.Joules {
	m.sync(m.engine.now)
	return m.energy
}

// sync integrates the running segment up to t.
func (m *PowerMeter) sync(t units.Seconds) {
	if t < m.lastT {
		return
	}
	m.energy += units.Energy(m.power, t-m.lastT)
	m.lastT = t
}

// Reset zeroes the accumulated energy (the current power level is kept).
// Used between the calibration pass and the measured pass of a run.
func (m *PowerMeter) Reset() {
	m.sync(m.engine.now)
	m.energy = 0
	m.peak = m.power
}
