// Package agg is the bounded-memory aggregation tier over the raw
// telemetry of internal/telemetry: instead of retaining per-sample
// series for every sweep cell (which a 10^6-cell grid cannot afford),
// each completed cell is rolled up into a compact, mergeable CellRollup
// — integer counters, fixed-point scalar sums and relative-error
// quantile sketches — and merged into a Surface that answers "what does
// the efficiency surface look like *so far*" while the sweep is still
// running.
//
// Everything in this package is deterministic by construction: merges
// accumulate integers (bucket counts and micro-unit fixed-point sums),
// which are commutative and associative, so the merged surface is
// byte-identical no matter how many pool workers completed the cells or
// in which order — the property the sweep executor's determinism
// contract extends to telemetry.
package agg

import (
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha is the sketch's default relative-error bound: a reported
// quantile q satisfies |q - exact| <= DefaultAlpha * exact.
const DefaultAlpha = 0.01

// Sketch bounds below which values land in the zero bucket and above
// which they clamp to the top indexable value.  The clamp keeps the
// bucket index range — and so the sketch's memory — structurally
// bounded: with alpha = 0.01 the whole indexable span [1e-9, 1e12]
// covers ~2400 buckets, and a sketch can never grow past that no matter
// how many samples it absorbs.
const (
	sketchMinValue = 1e-9
	sketchMaxValue = 1e12
)

// Sketch is a DDSketch-style quantile sketch: logarithmic buckets with
// relative width gamma = (1+alpha)/(1-alpha), so any reported quantile
// is within a factor (1 +/- alpha) of the exact sample.  Sketches are
// mergeable (bucket counts add) and the merge is commutative and
// associative, which makes merged quantiles independent of merge order.
//
// The zero value is not usable; construct with NewSketch.  Sketch is
// not safe for concurrent use — the Surface serialises access.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	bins      map[int]uint64 // bucket index -> count
	zero      uint64         // samples <= sketchMinValue (incl. non-positive)
	count     uint64
	min, max  float64
	sumMicros int64 // fixed-point sum (micro-units) for deterministic means
}

// NewSketch builds an empty sketch with the given relative-error bound
// (<= 0 means DefaultAlpha).
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	g := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   g,
		lnGamma: math.Log(g),
		bins:    make(map[int]uint64),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// index maps a positive value to its logarithmic bucket.
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) / s.lnGamma))
}

// bucketValue is the representative value of bucket i — the midpoint
// estimate 2*gamma^i/(gamma+1), whose relative error over the bucket's
// span (gamma^(i-1), gamma^i] is at most alpha.
func (s *Sketch) bucketValue(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Observe records one sample.  NaN is ignored; non-positive and
// sub-minimum samples count in the zero bucket; samples above the top
// indexable value clamp (their count is kept, their magnitude is not).
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.count++
	s.sumMicros += micros(v)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= sketchMinValue {
		s.zero++
		return
	}
	if v > sketchMaxValue {
		v = sketchMaxValue
	}
	s.bins[s.index(v)]++
}

// Merge folds other into s.  The two sketches must share an alpha; the
// merge is pure integer addition, so any merge order yields the same
// state.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("agg: merging sketches with different alpha (%v vs %v)", s.alpha, other.alpha)
	}
	s.count += other.count
	s.zero += other.zero
	s.sumMicros += other.sumMicros
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	for i, n := range other.bins {
		s.bins[i] += n
	}
	return nil
}

// Count reports the number of observed samples.
func (s *Sketch) Count() uint64 { return s.count }

// Sum reports the (fixed-point) sum of all samples.
func (s *Sketch) Sum() float64 { return unmicros(s.sumMicros) }

// Mean reports the sample mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return unmicros(s.sumMicros) / float64(s.count)
}

// Min and Max report the exact sample extrema (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max reports the exact maximum sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile reports the q-quantile estimate (q in [0, 1]).  The estimate
// is within alpha relative error of the exact sample at that rank, for
// samples inside the indexable range.  An empty sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.count-1)) // 0-based rank of the target sample
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for _, i := range s.sortedIndices() {
		cum += s.bins[i]
		if rank < cum {
			return s.bucketValue(i)
		}
	}
	return s.max // unreachable unless rounding; the max is the safe answer
}

// sortedIndices reports the occupied bucket indices in ascending order.
func (s *Sketch) sortedIndices() []int {
	idx := make([]int, 0, len(s.bins))
	for i := range s.bins {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Bins reports the occupied buckets in ascending index order — the
// wire form a remote aggregator needs to re-merge the sketch.
func (s *Sketch) Bins() []Bin {
	out := make([]Bin, 0, len(s.bins))
	for _, i := range s.sortedIndices() {
		out = append(out, Bin{Index: i, Count: s.bins[i]})
	}
	return out
}

// Bin is one occupied sketch bucket.
type Bin struct {
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// SketchDoc is the sketch's JSON wire form: enough to re-merge
// losslessly (alpha + bins) plus the exact scalars.
type SketchDoc struct {
	Alpha float64 `json:"alpha"`
	Count uint64  `json:"count"`
	Zero  uint64  `json:"zero,omitempty"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Bins  []Bin   `json:"bins,omitempty"`
}

// Doc renders the sketch's wire form.
func (s *Sketch) Doc() SketchDoc {
	return SketchDoc{
		Alpha: s.alpha,
		Count: s.count,
		Zero:  s.zero,
		Sum:   s.Sum(),
		Min:   s.Min(),
		Max:   s.Max(),
		Bins:  s.Bins(),
	}
}

// FromDoc rebuilds a sketch from its wire form.
func FromDoc(d SketchDoc) *Sketch {
	s := NewSketch(d.Alpha)
	s.count = d.Count
	s.zero = d.Zero
	s.sumMicros = micros(d.Sum)
	if d.Count > 0 {
		s.min, s.max = d.Min, d.Max
	}
	for _, b := range d.Bins {
		s.bins[b.Index] = b.Count
	}
	return s
}

// QuantileDoc is the compact summary the surface serves for a sketch:
// headline quantiles instead of raw bins.
type QuantileDoc struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Quantiles renders the compact summary.
func (s *Sketch) Quantiles() QuantileDoc {
	return QuantileDoc{
		Count: s.count,
		Mean:  s.Mean(),
		Min:   s.Min(),
		Max:   s.Max(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// micros converts a float to fixed-point micro-units.  All cross-cell
// scalar accumulation in this package goes through micros so that the
// merge arithmetic is integer — commutative and associative — and the
// merged surface cannot depend on cell completion order the way a
// floating-point sum would.
func micros(v float64) int64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(math.Round(v * 1e6))
}

// unmicros converts fixed-point micro-units back to a float.
func unmicros(m int64) float64 { return float64(m) / 1e6 }
