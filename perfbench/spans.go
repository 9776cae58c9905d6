package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one job share job; parent is the index of the span that
// caused this one, -1 for a root.
type span struct {
	name       string
	job        int
	parent     int
	lane       int // timeline row: 0 for the driving goroutine, 1 for the service worker's HTTP calls
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends.  It is safe for
// concurrent use: the service worker's HTTP calls are recorded from its
// own goroutine while the driver records the job they belong to.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, job, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, job: job, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return r.spans[id].dur()
}

// add records a span measured elsewhere.
func (r *recorder) add(name string, job, parent, lane int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, job: job, parent: parent, lane: lane,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// do runs fn inside a span and returns fn's error.
func (r *recorder) do(name string, job, parent int, fn func(id int) error) error {
	id := r.begin(name, job, parent)
	err := fn(id)
	r.end(id)
	return err
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its children cover.  Children that overlap
// each other (concurrent calls under one job) are counted once, and the
// part of a child outside its parent is ignored.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		curA, curB := time.Duration(0), time.Duration(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

// depth returns how many ancestors span i has.
func depth(spans []span, i int) int {
	d := 0
	for p := spans[i].parent; p >= 0; p = spans[p].parent {
		d++
	}
	return d
}

// layerTotal is the summed duration and self time of every span of one
// name.
type layerTotal struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// layerTotals groups spans by name, ordered by self time, largest
// first: where the traced jobs' wall clock went.
func layerTotals(spans []span) []layerTotal {
	self := selfTimes(spans)
	byName := map[string]*layerTotal{}
	for i, s := range spans {
		t := byName[s.name]
		if t == nil {
			t = &layerTotal{name: s.name}
			byName[s.name] = t
		}
		t.count++
		t.total += s.dur()
		t.self += self[i]
	}
	out := make([]layerTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeChrome writes the spans as a Chrome trace: one complete event per
// span with its job, depth and self time in args; one process per job.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	var b trace.ChromeTraceBuilder
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed: the run failed inside it
		}
		b.Add(trace.ChromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: s.job, Tid: s.lane*100 + depth(spans, i),
			Args: map[string]string{
				"self_us": strconv.FormatFloat(float64(self[i].Nanoseconds())/1e3, 'f', 1, 64),
				"job":     fmt.Sprint(s.job),
			},
		})
	}
	return b.Write(w)
}
