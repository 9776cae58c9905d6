// Package perfmodel implements StarPU-style task performance models:
// per-codelet history tables keyed by a data footprint and a worker
// class.
//
// The worker class string embeds the device's power state (for example
// "cuda0@216W").  Re-calibrating after every power-cap change — the
// paper's protocol (§III-B) — therefore produces distinct estimates per
// (GPU, cap), which is exactly how the scheduler becomes "implicitly
// informed" of unbalanced capping.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/units"
)

// Key identifies one measurement class.
type Key struct {
	// Codelet is the kernel name ("dgemm", "spotrf", ...).
	Codelet string
	// Footprint hashes the task's data geometry (StarPU hashes buffer
	// dimensions; callers provide any stable 64-bit digest).
	Footprint uint64
	// WorkerClass identifies the executing device *and* its power state.
	WorkerClass string
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%x@%s", k.Codelet, k.Footprint, k.WorkerClass)
}

// Entry is one key's accumulator of duration samples (Welford's
// algorithm), and the handle History.Handle hands out for the key.  A
// handle stays valid for the life of its History: Invalidate and Reset
// reset entries in place and never drop them, so a caller that holds a
// handle records and estimates through it without hashing the key
// again.  An entry with no samples is absent from Len and Dump.
type Entry struct {
	key  Key
	n    int
	mean float64
	m2   float64
}

func (e *Entry) add(x float64) {
	e.n++
	d := x - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (x - e.mean)
}

func (e *Entry) stddev() float64 {
	if e.n < 2 {
		return 0
	}
	return math.Sqrt(e.m2 / float64(e.n-1))
}

// reset drops the entry's samples.
func (e *Entry) reset() { e.n, e.mean, e.m2 = 0, 0, 0 }

// History is a history-based performance model ("the measured execution
// times of previous identical tasks predict the next one").
// It is safe for concurrent use.
type History struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	// MinSamples is how many observations a key needs before Estimate
	// trusts it (StarPU's calibration threshold; default 1).
	MinSamples int
	// OnRecord, when set, fires after every Record with the model's
	// prediction as it stood *before* the new observation.  calibrated
	// is false when the key had no trusted estimate yet — i.e. the
	// observation was a calibration sample.  The telemetry layer uses
	// this to track calibration events and estimate error.  Set before
	// the model is shared; the hook runs outside the lock.
	OnRecord func(k Key, observed, predicted units.Seconds, calibrated bool)
}

// NewHistory returns an empty model with the default sample threshold.
func NewHistory() *History {
	return &History{entries: make(map[Key]*Entry), MinSamples: 1}
}

// Handle returns k's entry, creating an empty one the first time k is
// seen.  Record(k, d) and RecordAt(Handle(k), d) are the same
// operation, as are Estimate(k) and EstimateAt(Handle(k)).
func (h *History) Handle(k Key) *Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[k]
	if !ok {
		e = &Entry{key: k}
		h.entries[k] = e
	}
	return e
}

// minSamples reports the effective calibration threshold; h.mu is held.
func (h *History) minSamples() int { return max(h.MinSamples, 1) }

// Record adds one observed duration.
func (h *History) Record(k Key, d units.Seconds) {
	if d < 0 {
		return
	}
	h.RecordAt(h.Handle(k), d)
}

// RecordAt adds one observed duration to the entry e, a handle from
// this History.
func (h *History) RecordAt(e *Entry, d units.Seconds) {
	if d < 0 {
		return
	}
	h.mu.Lock()
	predicted := units.Seconds(e.mean)
	calibrated := e.n >= h.minSamples()
	e.add(float64(d))
	hook := h.OnRecord
	h.mu.Unlock()
	if hook != nil {
		if !calibrated {
			predicted = 0
		}
		hook(e.key, d, predicted, calibrated)
	}
}

// Estimate reports the expected duration for k.  ok is false while the
// key has fewer than MinSamples observations.
func (h *History) Estimate(k Key) (d units.Seconds, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, exists := h.entries[k]
	if !exists {
		return 0, false
	}
	return h.estimate(e)
}

// EstimateAt is Estimate for the entry e, a handle from this History.
func (h *History) EstimateAt(e *Entry) (d units.Seconds, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.estimate(e)
}

// estimate reports e's trusted mean; h.mu is held.
func (h *History) estimate(e *Entry) (units.Seconds, bool) {
	if e.n < h.minSamples() {
		return 0, false
	}
	return units.Seconds(e.mean), true
}

// Samples reports how many observations k has.
func (h *History) Samples(k Key) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[k]; ok {
		return e.n
	}
	return 0
}

// Stddev reports the sample standard deviation for k (0 under 2 samples).
func (h *History) Stddev(k Key) units.Seconds {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[k]; ok {
		return units.Seconds(e.stddev())
	}
	return 0
}

// Invalidate drops the samples of every entry whose worker class
// matches the predicate and reports how many entries had any.
// Changing a device's power cap changes its class string, so stale
// entries are simply never hit again; Invalidate exists for explicit
// recalibration experiments (the "stale model" ablation).
func (h *History) Invalidate(match func(workerClass string) bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for k, e := range h.entries {
		if e.n > 0 && match(k.WorkerClass) {
			e.reset()
			n++
		}
	}
	return n
}

// Reset drops all samples.
func (h *History) Reset() {
	h.mu.Lock()
	for _, e := range h.entries {
		e.reset()
	}
	h.mu.Unlock()
}

// Len reports the number of distinct keys with samples.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, e := range h.entries {
		if e.n > 0 {
			n++
		}
	}
	return n
}

// Dump renders the table sorted by key, for debugging and the schedtrace
// tool.
func (h *History) Dump() string {
	h.mu.Lock()
	keys := make([]Key, 0, len(h.entries))
	for k, e := range h.entries {
		if e.n > 0 {
			keys = append(keys, k)
		}
	}
	h.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var b strings.Builder
	for _, k := range keys {
		d, _ := h.Estimate(k)
		fmt.Fprintf(&b, "%-40s n=%-4d mean=%v\n", k.String(), h.Samples(k), d)
	}
	return b.String()
}
