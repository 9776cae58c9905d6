// The result codec: one fixed-schema binary format for a Result, the
// single durable form of a completed cell.  Checkpoint journals, the
// sweep coordinator's resume path and the sweep service's result bodies
// all carry these bytes, so a Result restored from any of them is
// bit-identical to the one that was encoded.
//
// Layout (version 1).  The payload starts with the magic "CRS", the
// version byte and a uvarint giving the summed length of every string
// in the payload, so the decoder can hold all strings in one exactly
// sized buffer.  Then every field a Result reaches follows in struct
// declaration order, with no field tags or type descriptors:
//
//   - int: zig-zag varint (encoding/binary's Varint);
//   - float64 and the units types: the 8 IEEE-754 bytes, little endian,
//     so every value (−0, NaN payloads) round-trips bit-exactly;
//   - string: uvarint byte length, then the bytes;
//   - bool and pointer presence: one byte, 0 or 1;
//   - slice: uvarint count, then the elements;
//   - map: uvarint count, then (key, value) pairs in ascending key order.
//
// The decoder accepts exactly the canonical encoding, so for every
// payload it accepts, re-encoding the decoded Result gives the payload
// back: varints must be minimal, map keys strictly ascending, bools 0 or
// 1, the string total exact, and nothing may trail the Result.  A count larger than the bytes
// left could ever hold is rejected before anything is allocated.  A
// zero count decodes to a nil slice or map.
//
// Version rule: any change to the layout, including a field added to a
// struct the Result reaches (TestResultSchemaPinned fails until the
// codec is updated), bumps resultVersion.  A payload of another version
// or without the magic fails with a *ResultFormatError; the checkpoint
// and sweep resume paths treat such a record as absent and re-run the
// cell.
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/prec"
	"repro/internal/spantrace"
	"repro/internal/starpu"
	"repro/internal/trace"
	"repro/internal/units"
)

const (
	resultMagic   = "CRS"
	resultVersion = 1
)

// ResultFormatError reports a payload that is not a result of this
// codec's version: a record written by an older format (the gob
// journals before version 1) or by a newer one.
type ResultFormatError struct {
	// Version is the payload's version byte, or -1 when the payload
	// does not start with the codec's magic.
	Version int
}

func (e *ResultFormatError) Error() string {
	if e.Version < 0 {
		return fmt.Sprintf("core: decode result: not a version-%d result payload (no %q magic)", resultVersion, resultMagic)
	}
	return fmt.Sprintf("core: decode result: payload version %d, this codec reads version %d", e.Version, resultVersion)
}

// encBufs recycles encoder scratch space, so an encode allocates only
// the exactly sized payload it returns.
var encBufs = sync.Pool{New: func() any { return new(encoder) }}

// encodeResult serialises a Result in the codec's current version.
func encodeResult(res *Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("core: encode result: nil Result")
	}
	e := encBufs.Get().(*encoder)
	e.buf, e.strBytes = e.buf[:0], 0
	e.result(res)
	out := make([]byte, 0, len(resultMagic)+1+binary.MaxVarintLen64+len(e.buf))
	out = append(out, resultMagic...)
	out = append(out, resultVersion)
	out = binary.AppendUvarint(out, uint64(e.strBytes))
	out = append(out, e.buf...)
	encBufs.Put(e)
	return out, nil
}

// decodeResult restores a Result encoded by encodeResult.
func decodeResult(payload []byte) (*Result, error) {
	if len(payload) < len(resultMagic)+1 || string(payload[:len(resultMagic)]) != resultMagic {
		return nil, &ResultFormatError{Version: -1}
	}
	if v := payload[len(resultMagic)]; v != resultVersion {
		return nil, &ResultFormatError{Version: int(v)}
	}
	d := decoder{p: payload, off: len(resultMagic) + 1}
	strBytes := d.count(1)
	d.strs.Grow(strBytes)
	res := d.result()
	switch {
	case d.err != nil:
	case d.strs.Len() != strBytes:
		d.fail("strings hold %d byte(s), the header says %d", d.strs.Len(), strBytes)
	case d.off != len(payload):
		d.fail("%d trailing byte(s)", len(payload)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return res, nil
}

type encoder struct {
	buf      []byte // the fields, after the header
	strBytes int    // summed string lengths, for the header
}

func (e *encoder) int(v int)   { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *encoder) count(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
	e.strBytes += len(s)
}

func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) result(r *Result) {
	e.str(r.Plan)
	e.int(int(r.Workload.Op))
	e.int(r.Workload.N)
	e.int(r.Workload.NB)
	e.int(int(r.Workload.Precision))
	e.f64(float64(r.Makespan))
	e.f64(float64(r.Rate))
	e.f64(float64(r.Energy))
	e.count(len(r.Device))
	for _, k := range sortedKeys(r.Device) {
		e.str(k)
		e.f64(float64(r.Device[k]))
	}
	e.f64(r.Efficiency)
	e.bool(r.Stats != nil)
	if r.Stats != nil {
		e.stats(r.Stats)
	}
	e.bool(r.Trace != nil)
	if r.Trace != nil {
		e.trace(r.Trace)
	}
	e.bool(r.Degraded != nil)
	if g := r.Degraded; g != nil {
		e.str(g.Plan)
		e.count(len(g.Evictions))
		for _, ev := range g.Evictions {
			e.int(ev.Worker)
			e.f64(float64(ev.T))
			e.str(ev.Reason)
			e.int(ev.Aborted)
			e.int(ev.Requeued)
			e.int(ev.Stranded)
		}
	}
	e.bool(r.Faults != nil)
	if f := r.Faults; f != nil {
		e.str(f.Spec)
		in := f.Injected
		for _, v := range [...]int{in.CapFailures, in.CapClamps, in.TaskFaults, in.Throttles,
			in.Dropouts, in.Evictions, in.Requeued, f.CapRetries, f.CapClamped, f.TaskRetries} {
			e.int(v)
		}
	}
}

func (e *encoder) stats(s *trace.Stats) {
	e.f64(float64(s.Makespan))
	e.int(s.TotalTasks)
	e.count(len(s.Workers))
	for _, w := range s.Workers {
		e.str(w.Name)
		e.int(int(w.Kind))
		e.int(w.Tasks)
		e.f64(float64(w.Busy))
		e.f64(float64(w.Transfer))
		e.f64(w.Utilisation)
	}
	e.count(len(s.ByKind))
	for _, k := range sortedKeys(s.ByKind) {
		e.int(int(k))
		e.int(s.ByKind[k])
	}
	e.count(len(s.ByCodelet))
	for _, k := range sortedKeys(s.ByCodelet) {
		e.str(k)
		e.int(s.ByCodelet[k])
	}
	e.f64(s.GPUShare)
	e.f64(float64(s.TransferBytes))
}

func (e *encoder) trace(t *spantrace.Trace) {
	e.f64(float64(t.T0))
	e.f64(float64(t.T1))
	e.count(len(t.Workers))
	for _, w := range t.Workers {
		e.int(w.ID)
		e.str(w.Name)
		e.str(w.Kind)
	}
	e.count(len(t.Spans))
	for i := range t.Spans {
		s := &t.Spans[i]
		e.int(s.Task)
		e.str(s.Tag)
		e.str(s.Codelet)
		e.int(s.Worker)
		e.str(s.WorkerName)
		e.str(s.Kind)
		e.int(s.GPU)
		e.int(s.Package)
		e.str(s.Level)
		e.str(s.Reason)
		for _, v := range [...]float64{float64(s.SubmitT), float64(s.ReadyT), float64(s.StartT), float64(s.EndT),
			float64(s.TransferBytes), float64(s.AccelPowerW), float64(s.HostPowerW)} {
			e.f64(v)
		}
		e.bool(s.Aborted)
	}
	e.count(len(t.Edges))
	for _, ed := range t.Edges {
		e.int(ed.From)
		e.int(ed.To)
	}
	e.count(len(t.Devices))
	for _, d := range t.Devices {
		e.str(d.Device)
		e.f64(float64(d.MeasuredJ))
		e.f64(float64(d.SpanJ))
		e.f64(float64(d.StaticJ))
	}
}

// sortedKeys lists a map's keys in ascending order, the codec's map
// order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Minimum encoded sizes of the repeated elements, so a count can be
// checked against the bytes left before anything is allocated.
const (
	minDeviceEntry  = 1 + 8                 // key, joules
	minWorkerStat   = 1 + 1 + 1 + 3*8       // name, kind, tasks, busy/transfer/utilisation
	minIntEntry     = 1 + 1                 // key, count
	minWorkerMeta   = 1 + 1 + 1             // id, name, kind
	minSpan         = 4 + 6 + 7*8 + 1       // ints, strings, times/bytes/powers, aborted
	minEdge         = 1 + 1                 // from, to
	minDeviceEnergy = 1 + 3*8               // device, measured/span/static
	minEviction     = 1 + 8 + 1 + 1 + 1 + 1 // worker, t, reason, aborted/requeued/stranded
)

// decoder reads one payload.  The first error sticks: later reads
// return zero values and counts of 0, so decoding runs to the end
// without allocating and the caller checks err once.
type decoder struct {
	p    []byte
	off  int
	err  error
	strs strings.Builder // every decoded string, sized by the header
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode result at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// uvarint reads a minimal unsigned varint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	switch {
	case n == 0:
		d.fail("truncated varint")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.p[d.off+n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least minSize bytes each.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if left := uint64(len(d.p) - d.off); n > left/uint64(minSize) {
		d.fail("count %d exceeds the %d byte(s) left", n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.p)-d.off < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.count(1)
	start := d.strs.Len()
	d.strs.Write(d.p[d.off : d.off+n])
	d.off += n
	// A Builder never rewrites bytes it has handed out, so each string
	// is a stable slice of the one buffer: one allocation for all of
	// them, holding no float bytes that would stay alive with a kept
	// string.
	return d.strs.String()[start:]
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off == len(d.p) {
		d.fail("truncated bool")
		return false
	}
	b := d.p[d.off]
	if b > 1 {
		d.fail("bool byte %d", b)
		return false
	}
	d.off++
	return b == 1
}

func (d *decoder) result() *Result {
	r := &Result{Plan: d.str()}
	r.Workload = Workload{Op: Operation(d.int()), N: d.int(), NB: d.int(), Precision: prec.Precision(d.int())}
	r.Makespan = units.Seconds(d.f64())
	r.Rate = units.FlopsPerSec(d.f64())
	r.Energy = units.Joules(d.f64())
	if n := d.count(minDeviceEntry); n > 0 {
		r.Device = make(map[string]units.Joules, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail("Device key %q out of order", k)
			}
			r.Device[k] = units.Joules(d.f64())
			prev = k
		}
	}
	r.Efficiency = d.f64()
	if d.bool() {
		r.Stats = d.stats()
	}
	if d.bool() {
		r.Trace = d.trace()
	}
	if d.bool() {
		g := &DegradedRun{Plan: d.str()}
		if n := d.count(minEviction); n > 0 {
			g.Evictions = make([]starpu.Eviction, n)
			for i := range g.Evictions {
				g.Evictions[i] = starpu.Eviction{Worker: d.int(), T: units.Seconds(d.f64()), Reason: d.str(),
					Aborted: d.int(), Requeued: d.int(), Stranded: d.int()}
			}
		}
		r.Degraded = g
	}
	if d.bool() {
		r.Faults = &FaultReport{Spec: d.str(),
			Injected: faults.Stats{CapFailures: d.int(), CapClamps: d.int(), TaskFaults: d.int(), Throttles: d.int(),
				Dropouts: d.int(), Evictions: d.int(), Requeued: d.int()},
			CapRetries: d.int(), CapClamped: d.int(), TaskRetries: d.int()}
	}
	return r
}

func (d *decoder) stats() *trace.Stats {
	s := &trace.Stats{Makespan: units.Seconds(d.f64()), TotalTasks: d.int()}
	if n := d.count(minWorkerStat); n > 0 {
		s.Workers = make([]trace.WorkerStat, n)
		for i := range s.Workers {
			s.Workers[i] = trace.WorkerStat{Name: d.str(), Kind: starpu.WorkerKind(d.int()), Tasks: d.int(),
				Busy: units.Seconds(d.f64()), Transfer: units.Seconds(d.f64()), Utilisation: d.f64()}
		}
	}
	if n := d.count(minIntEntry); n > 0 {
		s.ByKind = make(map[starpu.WorkerKind]int, n)
		var prev starpu.WorkerKind
		for i := 0; i < n; i++ {
			k := starpu.WorkerKind(d.int())
			if i > 0 && k <= prev {
				d.fail("ByKind key %d out of order", k)
			}
			s.ByKind[k] = d.int()
			prev = k
		}
	}
	if n := d.count(minIntEntry); n > 0 {
		s.ByCodelet = make(map[string]int, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail("ByCodelet key %q out of order", k)
			}
			s.ByCodelet[k] = d.int()
			prev = k
		}
	}
	s.GPUShare = d.f64()
	s.TransferBytes = units.Bytes(d.f64())
	return s
}

func (d *decoder) trace() *spantrace.Trace {
	t := &spantrace.Trace{T0: units.Seconds(d.f64()), T1: units.Seconds(d.f64())}
	if n := d.count(minWorkerMeta); n > 0 {
		t.Workers = make([]spantrace.WorkerMeta, n)
		for i := range t.Workers {
			t.Workers[i] = spantrace.WorkerMeta{ID: d.int(), Name: d.str(), Kind: d.str()}
		}
	}
	if n := d.count(minSpan); n > 0 {
		t.Spans = make([]spantrace.Span, n)
		for i := range t.Spans {
			t.Spans[i] = spantrace.Span{Task: d.int(), Tag: d.str(), Codelet: d.str(), Worker: d.int(),
				WorkerName: d.str(), Kind: d.str(), GPU: d.int(), Package: d.int(), Level: d.str(), Reason: d.str(),
				SubmitT: units.Seconds(d.f64()), ReadyT: units.Seconds(d.f64()), StartT: units.Seconds(d.f64()),
				EndT: units.Seconds(d.f64()), TransferBytes: units.Bytes(d.f64()), AccelPowerW: units.Watts(d.f64()),
				HostPowerW: units.Watts(d.f64()), Aborted: d.bool()}
		}
	}
	if n := d.count(minEdge); n > 0 {
		t.Edges = make([]spantrace.Edge, n)
		for i := range t.Edges {
			t.Edges[i] = spantrace.Edge{From: d.int(), To: d.int()}
		}
	}
	if n := d.count(minDeviceEnergy); n > 0 {
		t.Devices = make([]spantrace.DeviceEnergy, n)
		for i := range t.Devices {
			t.Devices[i] = spantrace.DeviceEnergy{Device: d.str(), MeasuredJ: units.Joules(d.f64()),
				SpanJ: units.Joules(d.f64()), StaticJ: units.Joules(d.f64())}
		}
	}
	return t
}
