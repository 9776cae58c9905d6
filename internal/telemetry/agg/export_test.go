package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func cellN(i int) CellRollup {
	return CellRollup{Key: fmt.Sprintf("cell-%04d", i), Platform: "p", Workload: "w", Plan: "HB"}
}

// newStream opens a JSONL sink in a temp dir and returns it with its path.
func newStream(t *testing.T) (*JSONLSink, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), StreamFile)
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	return sink, path
}

// streamLines reads the stream file back as its non-empty lines.
func streamLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestExporterSizeFlush: the stream writes and syncs once syncEvery
// fresh rollups are pending, without waiting for Close.
func TestExporterSizeFlush(t *testing.T) {
	sink, path := newStream(t)
	a := New(sink, ExporterConfig{})
	for i := 0; i < syncEvery-1; i++ {
		a.ObserveCell(cellN(i))
	}
	if got := len(streamLines(t, path)); got != 0 {
		t.Fatalf("%d lines on disk before the sync threshold, want 0", got)
	}
	a.ObserveCell(cellN(syncEvery - 1))
	if got := len(streamLines(t, path)); got != syncEvery {
		t.Fatalf("%d lines on disk at the sync threshold, want %d", got, syncEvery)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExporterCloseFlushesPartial: a partial buffer reaches disk on
// Close; an append after Close is dropped, never written.
func TestExporterCloseFlushesPartial(t *testing.T) {
	sink, path := newStream(t)
	a := New(sink, ExporterConfig{})
	for i := 0; i < 7; i++ {
		a.ObserveCell(cellN(i))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(streamLines(t, path)); got != 7 {
		t.Fatalf("%d lines after Close, want 7", got)
	}
	a.ObserveCell(cellN(99))
	if got := len(streamLines(t, path)); got != 7 || a.Dropped() != 1 {
		t.Fatalf("append after Close: %d lines, %d dropped; want 7 and 1", got, a.Dropped())
	}
}

// TestExporterFailedSyncDrops: rollups whose write fails are counted
// through OnDrop and Dropped, and Close returns the first error.
func TestExporterFailedSyncDrops(t *testing.T) {
	sink, _ := newStream(t)
	onDrop := 0
	a := New(sink, ExporterConfig{OnDrop: func(n int) { onDrop += n }})
	sink.f.Close() // every later write fails
	for i := 0; i < syncEvery+3; i++ {
		a.ObserveCell(cellN(i))
	}
	if onDrop != syncEvery {
		t.Fatalf("onDrop = %d after the first failed sync, want %d", onDrop, syncEvery)
	}
	err := a.Close()
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want the failed write's error", err)
	}
	if a.Dropped() != syncEvery+3 || onDrop != syncEvery+3 {
		t.Fatalf("dropped=%d onDrop=%d, want %d/%d", a.Dropped(), onDrop, syncEvery+3, syncEvery+3)
	}
}

// TestJSONLSink writes rollups as parseable JSON lines.
func TestJSONLSink(t *testing.T) {
	sink, path := newStream(t)
	c := cellN(0)
	c.Sketches = map[string]*Sketch{SketchTaskDuration: NewSketch(0)}
	c.Sketches[SketchTaskDuration].Observe(0.5)
	sink.Append(c)
	sink.Append(cellN(1))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	lines := streamLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	var back CellRollup
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Key != "cell-0000" || back.SketchDocs[SketchTaskDuration].Count != 1 {
		t.Fatalf("line 0 lost data: %+v", back)
	}
}

// TestJSONLSinkConcurrentAppends: the sweep pool appends from many
// goroutines at once; every rollup lands as one whole line.
func TestJSONLSinkConcurrentAppends(t *testing.T) {
	sink, path := newStream(t)
	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sink.Append(cellN(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range streamLines(t, path) {
		var back CellRollup
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		seen[back.Key] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("%d distinct rollups on disk, want %d", len(seen), workers*each)
	}
}
