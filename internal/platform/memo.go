package platform

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/starpu"
	"repro/internal/units"
)

// The DVFS operating point of a kernel is a pure function of the board's
// effective limit, the kernel's precision, its work and its efficiency
// factor (gpu.Device.KernelTimeAt), and a busy core's draw a pure
// function of its package's limit (cpu.Package.BusyCorePowerAt).  A
// cell launches a handful of distinct kernels under a handful of
// limits, yet each GPU task attempt asks for its point up to four times
// (Exec at staging, OnTaskStart, and ExecPower and SpanPower when a
// scheduler or tracer wants the draw), each costing several math.Pow
// calls.  The memos below answer repeats from a small table.
//
// Every lookup keys on the limit read at call time, never on a value
// resolved earlier: Exec runs at staging and OnTaskStart at the start
// event, and a cap write, throttle window or board death can land in
// between.  Keys compare by bit pattern, so a hit returns exactly what
// the device model would compute (DESIGN §14).

// opMemoSize is the number of direct-mapped memo slots per GPU.  A
// cell's kernels under one limit occupy a few of them.
const (
	opMemoBits = 4
	opMemoSize = 1 << opMemoBits
)

// opKey is the bit pattern of one gpu.Device.KernelTimeAt input.  prec
// holds the precision plus one, so the zero key marks an empty slot.
type opKey struct {
	limit, work, eff, prec uint64
}

// slot maps the key onto one of a GPU's opMemoSize slots.
func (k opKey) slot() int {
	h := k.limit*0x9e3779b97f4a7c15 ^ k.work ^ k.eff*0xc2b2ae3d27d4eb4f ^ k.prec
	h *= 0x9e3779b97f4a7c15
	return int(h >> (64 - opMemoBits))
}

// opEntry is one memoized kernel launch: the operating point and the
// kernel duration gpu.Device.KernelTimeAt reported for key.
type opEntry struct {
	key opKey
	dur units.Seconds
	op  gpu.OperatingPoint
}

// corePower is one package's memoized busy-core draw: power is
// cpu.Package.BusyCorePowerAt of the limit whose bits are limit.
type corePower struct {
	limit uint64
	power units.Watts
}

// gpuPoint reports the kernel duration and operating point of t on GPU
// g under the board's current effective limit.
func (p *Platform) gpuPoint(g int, t *starpu.Task) (units.Seconds, gpu.OperatingPoint) {
	d := p.gpus[g]
	limit := d.PowerLimit()
	pr := t.Codelet.Precision
	e := eff(t.Codelet.GPUEfficiency)
	k := opKey{
		limit: math.Float64bits(float64(limit)),
		work:  math.Float64bits(float64(t.Work)),
		eff:   math.Float64bits(e),
		prec:  uint64(pr) + 1,
	}
	m := &p.boards[g].memo[k.slot()]
	if m.key != k {
		dur, op := d.KernelTimeAt(limit, pr, t.Work, e)
		*m = opEntry{key: k, dur: dur, op: op}
	}
	return m.dur, m.op
}

// gpuDelta reports the draw above idle of t's kernel on GPU g.
func (p *Platform) gpuDelta(g int, t *starpu.Task) units.Watts {
	_, op := p.gpuPoint(g, t)
	delta := op.Power - p.GPUArch.IdlePower
	if delta < 0 {
		delta = 0
	}
	return delta
}

// busyCorePower reports one busy core's draw on package pkg under its
// current limit.
func (p *Platform) busyCorePower(pkg int) units.Watts {
	pk := p.packages[pkg]
	limit := pk.PowerLimit()
	bits := math.Float64bits(float64(limit))
	m := &p.coreMemo[pkg]
	if m.limit != bits || bits == 0 {
		*m = corePower{limit: bits, power: pk.BusyCorePowerAt(limit)}
	}
	return m.power
}
