package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome Trace Event Format writer: traces open directly in
// chrome://tracing or https://ui.perfetto.dev — the closest equivalent
// of StarPU's ViTE trace visualisation.  The spantrace package's causal
// traces and the benchmark's layer traces both write through this one
// builder and its ordering contract.

// ChromeEvent is one trace event.  Complete slices use Ph "X" with Ts
// and Dur in microseconds; metadata rows use Ph "M"; flow events use
// Ph "s" (start) and "f" (finish) with a shared ID, the arrows trace
// viewers draw between slices.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTraceBuilder accumulates events and writes them in a stable
// order, so traces are byte-identical however the events were produced
// (serial loop or parallel sweep, any worker count).
type ChromeTraceBuilder struct {
	events []ChromeEvent
}

// Add appends one event.
func (b *ChromeTraceBuilder) Add(e ChromeEvent) { b.events = append(b.events, e) }

// Len reports the number of accumulated events.
func (b *ChromeTraceBuilder) Len() int { return len(b.events) }

// Write sorts the events by (ts, tid, name, ph) — metadata naturally
// leads at ts 0 — and encodes them as one JSON array.  The sort is
// stable, so equal keys keep insertion order.
func (b *ChromeTraceBuilder) Write(w io.Writer) error {
	sort.SliceStable(b.events, func(i, j int) bool {
		a, c := b.events[i], b.events[j]
		if a.Ts != c.Ts {
			return a.Ts < c.Ts
		}
		if a.Tid != c.Tid {
			return a.Tid < c.Tid
		}
		if a.Name != c.Name {
			return a.Name < c.Name
		}
		return a.Ph < c.Ph
	})
	// A nil slice encodes as JSON null, which trace viewers reject; an
	// empty trace must still produce a valid (empty) event array.
	events := b.events
	if events == nil {
		events = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// FlowPair appends the s/f event pair of one causal arrow: from (fromTs,
// fromTid) to (toTs, toTid), bound to the enclosing slices.  BP "e"
// makes the finish bind to the slice enclosing its timestamp rather
// than the next slice to start.
func (b *ChromeTraceBuilder) FlowPair(name, cat, id string, fromTs float64, fromTid int, toTs float64, toTid int) {
	b.Add(ChromeEvent{Name: name, Cat: cat, Ph: "s", ID: id, Ts: fromTs, Pid: 0, Tid: fromTid})
	b.Add(ChromeEvent{Name: name, Cat: cat, Ph: "f", ID: id, BP: "e", Ts: toTs, Pid: 0, Tid: toTid})
}
