package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{name: "job", parent: -1, start: msec(0), end: msec(100)},
		{name: "a", parent: 0, start: msec(10), end: msec(30)},
		{name: "b", parent: 0, start: msec(20), end: msec(50)},  // overlaps a: 10..50 covered once
		{name: "c", parent: 0, start: msec(90), end: msec(120)}, // runs past its parent: 90..100 counts
		{name: "d", parent: 2, start: msec(25), end: msec(35)},  // grandchild: only b loses it
	}
	self := selfTimes(spans)
	want := []time.Duration{msec(100 - 40 - 10), msec(20), msec(30 - 10), msec(30), msec(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

func TestSelfTimeIgnoresUnclosedChildren(t *testing.T) {
	spans := []span{
		{name: "job", parent: -1, start: msec(0), end: msec(10)},
		{name: "open", parent: 0, start: msec(2), end: -1},
	}
	if got := selfTimes(spans)[0]; got != msec(10) {
		t.Errorf("self(job) = %v, want 10ms", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	job := r.begin("job", 3, -1)
	var inner int
	err := r.do("outer", 3, job, func(id int) error {
		inner = r.begin("inner", 3, id)
		time.Sleep(time.Millisecond)
		r.end(inner)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.end(job)
	now := time.Now()
	r.add("rtt", 3, job, 1, now.Add(-time.Millisecond), now)

	spans := r.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].parent != job || spans[inner].parent != 1 || spans[3].parent != job {
		t.Errorf("parents = %d %d %d", spans[1].parent, spans[inner].parent, spans[3].parent)
	}
	if depth(spans, inner) != 2 || depth(spans, job) != 0 {
		t.Errorf("depths = %d %d", depth(spans, inner), depth(spans, job))
	}
	for i, s := range spans[:3] {
		if s.end < s.start || (s.parent >= 0 && (s.start < spans[s.parent].start || s.end > spans[s.parent].end)) {
			t.Errorf("span %d (%s) [%v, %v] does not nest in its parent", i, s.name, s.start, s.end)
		}
	}
	for _, s := range spans {
		if s.job != 3 {
			t.Errorf("span %s has job %d, want 3", s.name, s.job)
		}
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("%d chrome events, want 4", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" || e["pid"] != float64(3) {
			t.Errorf("event %v: want a complete event of process 3", e)
		}
	}
}

func TestLayerTotalsGroupByName(t *testing.T) {
	spans := []span{
		{name: "job", parent: -1, start: msec(0), end: msec(100)},
		{name: "run", parent: 0, start: msec(0), end: msec(30)},
		{name: "run", parent: 0, start: msec(40), end: msec(90)},
	}
	totals := layerTotals(spans)
	if len(totals) != 2 || totals[0].name != "run" || totals[0].count != 2 ||
		totals[0].total != msec(80) || totals[1].self != msec(20) {
		t.Errorf("layerTotals = %+v", totals)
	}
}
