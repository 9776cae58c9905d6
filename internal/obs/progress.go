// The progress tracker: cells done/total (overall and per plan), an
// EWMA completion rate, an ETA, and straggler flagging at the p95 of
// completed cell durations.  The tracker is the server edge of the
// observability plane — it stamps event *arrivals* with wall-clock
// time, which is legitimate exactly because nothing downstream of it
// feeds back into the simulation.
package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// ewmaAlpha weights the newest completion-rate sample; ~0.2 keeps the
// rate responsive over the last handful of cells without whiplashing
// on a single fast or slow one.
const ewmaAlpha = 0.2

// maxDurationSamples bounds the completed-duration sample the p95
// straggler threshold is computed from.
const maxDurationSamples = 8192

// planProgress is one plan's done/total pair.
type planProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Straggler is an in-flight cell that has exceeded the p95 duration of
// completed cells.
type Straggler struct {
	Cell     string  `json:"cell"`
	ElapsedS float64 `json:"elapsed_s"`
}

// ProgressSnapshot is the /progress JSON document.
type ProgressSnapshot struct {
	// Total and Done count sweep cells; Done includes Resumed.
	Total int `json:"cells_total"`
	Done  int `json:"cells_done"`
	// Resumed counts cells restored from a checkpoint journal; Failed
	// counts hung + panicked cells; Degraded counts cells that finished
	// on a reduced machine.
	Resumed  int `json:"cells_resumed"`
	Failed   int `json:"cells_failed"`
	Degraded int `json:"cells_degraded"`
	// InFlight counts started-but-unfinished cells.
	InFlight int `json:"cells_in_flight"`
	// Percent is Done/Total in [0,100]; 0 when Total is unknown.
	Percent float64 `json:"percent"`
	// CellsPerSec is the EWMA completion rate over actually-run cells
	// (resumed cells are excluded: a journal replay says nothing about
	// how fast the remaining cells will run).
	CellsPerSec float64 `json:"cells_per_sec"`
	// EtaSeconds estimates the remaining wall-clock time; nil until a
	// real (non-resumed) cell has completed.
	EtaSeconds *float64 `json:"eta_seconds,omitempty"`
	// ElapsedSeconds is wall-clock since the tracker saw its first event.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// P95CellSeconds is the straggler threshold (0 until enough samples).
	P95CellSeconds float64 `json:"p95_cell_seconds"`
	// PerPlan maps plan notation to done/total.
	PerPlan map[string]planProgress `json:"per_plan,omitempty"`
	// Stragglers lists in-flight cells past the p95 threshold.
	Stragglers []Straggler `json:"stragglers,omitempty"`
	// Fault-class event counts, so a dashboard needs no second endpoint.
	CapRetryExhausted int `json:"cap_retry_exhausted"`
	BreakerTrips      int `json:"breaker_trips"`
	WorkersEvicted    int `json:"workers_evicted"`
	// EventsDropped mirrors the bus-wide drop counter when the tracker
	// was built over a bus (0 otherwise).
	EventsDropped uint64 `json:"events_dropped"`
}

// Tracker folds bus events into live sweep progress.  All methods are
// safe for concurrent use; Observe is cheap enough to sit on the SSE
// fan-out path.
type Tracker struct {
	now func() time.Time // injectable for tests
	bus *Bus             // optional, for the dropped counter

	mu        sync.Mutex
	started   bool
	startWall time.Time
	total     int
	done      int
	resumed   int
	failed    int
	degraded  int
	perPlan   map[string]*planProgress
	inflight  map[string]time.Time
	lastDone  time.Time
	ewmaRate  float64
	durations []float64 // completed cell durations, kept sorted
	capExh    int
	trips     int
	evicted   int
}

// NewTracker returns an empty tracker.  bus may be nil; when set, the
// snapshot surfaces the bus-wide dropped-event counter.
func NewTracker(bus *Bus) *Tracker {
	return &Tracker{
		now:      time.Now,
		bus:      bus,
		perPlan:  make(map[string]*planProgress),
		inflight: make(map[string]time.Time),
	}
}

// SetClock overrides the wall clock (tests).
func (t *Tracker) SetClock(now func() time.Time) { t.now = now }

// Run subscribes to the bus and folds events until ctx is cancelled.
// The subscriber's ring is private to the tracker, so a slow /events
// client can never starve progress accounting.
//
// Run subscribes on the calling goroutine; callers that want a
// background drain should use Start, which registers the subscription
// before returning — `go tr.Run(...)` races the subscription against
// the caller's next Publish and can miss the sweep's opening events.
func (t *Tracker) Run(ctx context.Context, buffer int) {
	t.drain(ctx, t.bus.Subscribe(buffer))
}

// Start subscribes synchronously and drains on a background goroutine
// until ctx is cancelled: events published after Start returns — even
// immediately after — are never missed.  The returned function waits
// for the drain goroutine to exit.
func (t *Tracker) Start(ctx context.Context, buffer int) (wait func()) {
	sub := t.bus.Subscribe(buffer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.drain(ctx, sub)
	}()
	return func() { <-done }
}

func (t *Tracker) drain(ctx context.Context, sub *Subscriber) {
	defer sub.Close()
	for {
		for _, ev := range sub.Drain() {
			t.Observe(ev)
		}
		select {
		case <-ctx.Done():
			return
		case <-sub.Wait():
		}
	}
}

// Observe folds one event.
func (t *Tracker) Observe(ev Event) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.started = true
		t.startWall = now
		t.lastDone = now
	}
	switch ev.Type {
	case SweepStarted:
		t.total += ev.Total
		for plan, n := range ev.PlanTotals {
			t.plan(plan).Total += n
		}
	case CellStarted:
		t.inflight[ev.Cell] = now
	case CellFinished:
		t.done++
		t.plan(ev.Plan).Done++
		if start, ok := t.inflight[ev.Cell]; ok {
			delete(t.inflight, ev.Cell)
			if d := now.Sub(start).Seconds(); d >= 0 {
				if len(t.durations) < maxDurationSamples {
					// Sorted insert: the p95 is then an index, so a
					// lease request reading it never sorts the sample.
					i := sort.SearchFloat64s(t.durations, d)
					t.durations = slices.Insert(t.durations, i, d)
				}
			}
		}
		// EWMA over inter-completion gaps; a zero gap (timer
		// granularity) is clamped so the rate stays finite.
		gap := now.Sub(t.lastDone).Seconds()
		if gap < 1e-6 {
			gap = 1e-6
		}
		t.lastDone = now
		sample := 1 / gap
		if t.ewmaRate == 0 {
			t.ewmaRate = sample
		} else {
			t.ewmaRate = ewmaAlpha*sample + (1-ewmaAlpha)*t.ewmaRate
		}
	case CellResumed:
		t.done++
		t.resumed++
		t.plan(ev.Plan).Done++
	case CellHung, CellPanicked:
		t.failed++
		delete(t.inflight, ev.Cell)
	case DegradedRun:
		t.degraded++
	case CapRetryExhausted:
		t.capExh++
	case BreakerTripped:
		t.trips++
	case WorkerEvicted:
		t.evicted++
	}
}

func (t *Tracker) plan(name string) *planProgress {
	if name == "" {
		name = "?"
	}
	p, ok := t.perPlan[name]
	if !ok {
		p = &planProgress{}
		t.perPlan[name] = p
	}
	return p
}

// Snapshot renders the current progress document.
func (t *Tracker) Snapshot() ProgressSnapshot {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()

	s := ProgressSnapshot{
		Total:             t.total,
		Done:              t.done,
		Resumed:           t.resumed,
		Failed:            t.failed,
		Degraded:          t.degraded,
		InFlight:          len(t.inflight),
		CapRetryExhausted: t.capExh,
		BreakerTrips:      t.trips,
		WorkersEvicted:    t.evicted,
		EventsDropped:     t.bus.Dropped(),
	}
	if t.started {
		s.ElapsedSeconds = now.Sub(t.startWall).Seconds()
	}
	if t.total > 0 {
		s.Percent = 100 * float64(t.done) / float64(t.total)
		if s.Percent > 100 {
			s.Percent = 100
		}
	}
	// The EWMA rate is built from non-resumed completions only, so a
	// resume that replays half the grid in milliseconds cannot fake an
	// absurd rate: done jumps, the rate stays grounded in measured cells.
	realDone := t.done - t.resumed
	s.CellsPerSec = t.ewmaRate
	if realDone > 0 && t.ewmaRate > 0 && t.total > 0 {
		remaining := t.total - t.done
		if remaining < 0 {
			remaining = 0
		}
		eta := float64(remaining) / t.ewmaRate
		if !math.IsInf(eta, 0) && !math.IsNaN(eta) {
			s.EtaSeconds = &eta
		}
	}
	if len(t.perPlan) > 0 {
		s.PerPlan = make(map[string]planProgress, len(t.perPlan))
		for plan, p := range t.perPlan {
			s.PerPlan[plan] = *p
		}
	}
	s.P95CellSeconds = p95Sorted(t.durations)
	if s.P95CellSeconds > 0 {
		for cell, start := range t.inflight {
			if e := now.Sub(start).Seconds(); e > s.P95CellSeconds {
				s.Stragglers = append(s.Stragglers, Straggler{Cell: cell, ElapsedS: e})
			}
		}
		sort.Slice(s.Stragglers, func(i, j int) bool {
			if s.Stragglers[i].ElapsedS != s.Stragglers[j].ElapsedS {
				return s.Stragglers[i].ElapsedS > s.Stragglers[j].ElapsedS
			}
			return s.Stragglers[i].Cell < s.Stragglers[j].Cell
		})
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (t *Tracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}

// P95 reports the p95 completed-cell duration (0 until enough samples)
// without building a whole snapshot: the work-stealing threshold reads
// it on every lease request.
func (t *Tracker) P95() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(p95Sorted(t.durations) * float64(time.Second))
}

// p95Sorted is the 95th percentile of an ascending sample (0 when fewer
// than 4 samples — too little signal to call anything a straggler).
func p95Sorted(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	idx := int(math.Ceil(0.95*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}
