package agg

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsutil"
)

// Aggregator is the per-process aggregation tier: every completed cell
// is merged into the in-memory Surface (bounded, queryable via
// /surface) and appended to the JSON-lines stream.  A nil *Aggregator
// is a valid no-op receiver, so callers can wire it unconditionally.
type Aggregator struct {
	surface *Surface
	stream  *JSONLSink
}

// New builds an aggregator streaming into sink, which it owns from here
// on.  sink nil means surface-only (no stream).
func New(sink *JSONLSink, cfg ExporterConfig) *Aggregator {
	if sink != nil {
		sink.onDrop = cfg.OnDrop
	}
	return &Aggregator{surface: NewSurface(DefaultAlpha), stream: sink}
}

// Surface exposes the live surface (nil on a nil aggregator).
func (a *Aggregator) Surface() *Surface {
	if a == nil {
		return nil
	}
	return a.surface
}

// ObserveCell folds one cell rollup in.  Only a fresh cell (not a
// duplicate re-observation) is streamed — a resumed sweep restoring
// journalled cells re-populates the surface without re-streaming cells
// an earlier incarnation already wrote... unless the stream file was
// truncated, which is why the deterministic artifacts come from the
// surface, not the stream.
func (a *Aggregator) ObserveCell(c CellRollup) {
	if a == nil {
		return
	}
	if fresh := a.surface.Add(c); fresh && a.stream != nil {
		a.stream.Append(c)
	}
}

// Dropped reports how many rollups failed to reach the stream.
func (a *Aggregator) Dropped() uint64 {
	if a == nil || a.stream == nil {
		return 0
	}
	return a.stream.Dropped()
}

// Close syncs and closes the stream, returning its first error.
func (a *Aggregator) Close() error {
	if a == nil || a.stream == nil {
		return nil
	}
	return a.stream.Close()
}

// Artifact file names WriteArtifacts produces under the -agg-dir.
const (
	SurfaceFile = "surface.json"
	RollupsFile = "rollups.jsonl"
	StreamFile  = "stream.jsonl"
)

// WriteArtifacts writes the canonical aggregation artifacts into dir:
// surface.json (the full surface document) and rollups.jsonl (one
// full-fidelity group per line, sorted by group key).  Both are derived
// from the order-free surface, so they are byte-identical for a given
// cell set regardless of worker count, completion order, or a
// kill+resume in between.  Writes are atomic (tmp+rename).
func (a *Aggregator) WriteArtifacts(dir string) error {
	if a == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("agg: artifacts dir: %w", err)
	}
	sj, err := a.surface.MarshalSurface()
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(filepath.Join(dir, SurfaceFile), append(sj, '\n'), 0o644); err != nil {
		return err
	}
	rl, err := a.surface.MarshalRollups()
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(dir, RollupsFile), rl, 0o644)
}
