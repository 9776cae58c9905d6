package agg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// ExporterConfig configures the aggregator's rollup stream.
type ExporterConfig struct {
	// OnDrop, when set, observes every count of rollups whose stream
	// write or sync failed (wired to the capsim_telemetry_dropped_total
	// counter).  It is called without the stream's lock held.
	OnDrop func(n int)
}

// syncEvery is the stream's durability cadence: the sink writes and
// fsyncs its buffered lines once this many rollups are pending, and on
// Close.
const syncEvery = 64

var errSinkClosed = errors.New("agg: jsonl sink closed")

// JSONLSink streams rollups as JSON lines to a file — the local
// artifact capbench wires behind -agg-dir.  Lines land in completion
// order (the stream is a durability/debug artifact; the deterministic
// exports come from Surface.MarshalRollups).  Appends are synchronous:
// each rollup is encoded into a buffer that is written and fsynced
// every syncEvery rollups and on Close, so a crash loses at most the
// unsynced tail.  Rollups whose write or sync fails are dropped and
// counted; Close reports the first such error.
type JSONLSink struct {
	mu      sync.Mutex
	f       *os.File
	buf     bytes.Buffer
	enc     *json.Encoder
	pending int
	onDrop  func(n int)
	dropped uint64
	err     error
}

// NewJSONLSink creates (truncating) the stream file.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("agg: jsonl sink: %w", err)
	}
	s := &JSONLSink{f: f}
	s.enc = json.NewEncoder(&s.buf)
	return s, nil
}

// Append encodes one rollup as a JSON line, writing and syncing the
// buffer once syncEvery rollups are pending.
func (s *JSONLSink) Append(c CellRollup) {
	s.mu.Lock()
	lost := 0
	if s.f == nil {
		lost = s.drop(1, errSinkClosed)
	} else if err := s.enc.Encode(c.Doc()); err != nil {
		lost = s.drop(1, err)
	} else if s.pending++; s.pending >= syncEvery {
		lost = s.sync()
	}
	s.mu.Unlock()
	s.report(lost)
}

// sync writes and fsyncs the pending lines; on failure they are all
// dropped.  It returns the dropped count.  Caller holds s.mu.
func (s *JSONLSink) sync() int {
	n := s.pending
	if n == 0 {
		return 0
	}
	s.pending = 0
	defer s.buf.Reset()
	_, err := s.f.Write(s.buf.Bytes())
	if err == nil {
		err = s.f.Sync()
	}
	if err != nil {
		return s.drop(n, err)
	}
	return 0
}

// drop counts n lost rollups, keeps the first error and returns n.
// Caller holds s.mu.
func (s *JSONLSink) drop(n int, err error) int {
	s.dropped += uint64(n)
	if s.err == nil {
		s.err = fmt.Errorf("agg: jsonl sink: %w", err)
	}
	return n
}

// report passes a drop count to the OnDrop hook, outside s.mu.
func (s *JSONLSink) report(lost int) {
	if lost > 0 && s.onDrop != nil {
		s.onDrop(lost)
	}
}

// Dropped reports how many rollups failed to reach the stream.
func (s *JSONLSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close writes and syncs the pending lines, closes the stream file and
// returns the first encode, write, sync or close error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	lost := 0
	if s.f != nil {
		lost = s.sync()
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("agg: jsonl sink: %w", err)
		}
		s.f = nil
	}
	err := s.err
	s.mu.Unlock()
	s.report(lost)
	return err
}
