package agg

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestAggregatorObserveDedup: only fresh cells reach the stream;
// re-observations (resume) touch the surface dedup only.
func TestAggregatorObserveDedup(t *testing.T) {
	sink, path := newStream(t)
	a := New(sink, ExporterConfig{})
	c := cellN(0)
	a.ObserveCell(c)
	a.ObserveCell(c) // resume path: same key again
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(streamLines(t, path)); got != 1 {
		t.Fatalf("stream holds %d rollups, want 1 (dedup)", got)
	}
	if a.Surface().Cells() != 1 {
		t.Fatalf("surface cells = %d, want 1", a.Surface().Cells())
	}
}

// TestNilAggregator: the nil receiver is a working no-op, so callers
// can wire the observer unconditionally.
func TestNilAggregator(t *testing.T) {
	var a *Aggregator
	a.ObserveCell(cellN(0))
	if a.Dropped() != 0 || a.Surface() != nil {
		t.Fatal("nil aggregator must be inert")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteArtifacts(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// samplesPerCell is the synthetic sweep's per-cell sample volume: what a
// raw-series telemetry tier would have to retain per cell.
const samplesPerCell = 500

// syntheticCell fabricates one sweep cell with task-level sketch data.
func syntheticCell(rng *rand.Rand, i int) CellRollup {
	group := i % 200 // ~200 grid coordinates, many seeds each
	c := CellRollup{
		Key:           fmt.Sprintf("plat|wl|plan%03d|seed=%d", group, i),
		GroupKey:      fmt.Sprintf("plat|wl|plan%03d", group),
		Platform:      "plat",
		Workload:      "wl",
		Plan:          fmt.Sprintf("plan%03d", group),
		Seed:          int64(i),
		MakespanS:     10 + rng.Float64(),
		EnergyJ:       1000 + 100*rng.Float64(),
		GFlops:        500,
		GFlopsPerWatt: 0.5 + 0.1*rng.Float64(),
	}
	c.EDP = c.EnergyJ * c.MakespanS
	c.ED2P = c.EDP * c.MakespanS
	dur := NewSketch(DefaultAlpha)
	en := NewSketch(DefaultAlpha)
	for s := 0; s < samplesPerCell/2; s++ {
		dur.Observe(rng.ExpFloat64() * 0.01)
		en.Observe(rng.ExpFloat64() * 5)
	}
	c.Sketches = map[string]*Sketch{SketchTaskDuration: dur, SketchSpanEnergy: en}
	return c
}

// TestSurfaceMemoryBounded is the acceptance property test: a 10^4-cell
// synthetic sweep (5·10^6 samples) must keep the rollup tier's live heap
// under a fixed budget, while retaining the raw series provably could
// not.  The budget is far below the raw-series requirement, so the test
// fails if the surface ever starts retaining per-sample state.
func TestSurfaceMemoryBounded(t *testing.T) {
	const cells = 10_000
	const heapBudget = 64 << 20 // 64 MiB live heap for the whole surface

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := NewSurface(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cells; i++ {
		s.Add(syntheticCell(rng, i))
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	// What a raw-series tier would need just for the float64 samples
	// (16 bytes per sample with timestamps, the sampler's series shape).
	rawBytes := int64(cells) * samplesPerCell * 16
	if grew >= rawBytes {
		t.Fatalf("rollup tier grew %d bytes, no better than raw series (%d)", grew, rawBytes)
	}
	if grew > heapBudget {
		t.Fatalf("rollup tier heap grew %d bytes, budget %d", grew, heapBudget)
	}
	if s.Cells() != cells {
		t.Fatalf("merged %d cells, want %d", s.Cells(), cells)
	}
	t.Logf("heap growth: %.1f MiB for %d cells (raw series would need >= %.1f MiB)",
		float64(grew)/(1<<20), cells, float64(rawBytes)/(1<<20))

	// The merged tier must still answer queries with sketch fidelity.
	doc, err := s.Doc("")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 200 {
		t.Fatalf("groups = %d, want 200", len(doc.Groups))
	}
	q := doc.Groups[0].Quantiles[SketchTaskDuration]
	if q.Count == 0 || q.P99 <= q.P50 {
		t.Fatalf("quantile summary degenerate: %+v", q)
	}
}

// BenchmarkSurfaceAdd measures the per-cell aggregation cost.
func BenchmarkSurfaceAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cells := make([]CellRollup, 1024)
	for i := range cells {
		cells[i] = syntheticCell(rng, i)
	}
	s := NewSurface(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cells[i%len(cells)]
		c.Key = fmt.Sprintf("%s#%d", c.Key, i) // keep every add fresh
		s.Add(c)
	}
}
