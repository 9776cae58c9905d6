package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

// pointSource is what the runtime and the span tracer read off the
// platform's memoized device physics.
type pointSource interface {
	Exec(i int, t *starpu.Task) units.Seconds
	ExecPower(i int, t *starpu.Task) units.Watts
	SpanPower(i int, t *starpu.Task) (accel, host units.Watts)
}

// memoCodelets spans both precisions and the efficiency factors eff
// treats specially (0 reads as 1, 1 does not derate).
var memoCodelets = []*starpu.Codelet{
	{Name: "sgemm", Precision: prec.Single, CanCPU: true, CanCUDA: true},
	{Name: "dgemm", Precision: prec.Double, CanCPU: true, CanCUDA: true, GPUEfficiency: 1, CPUEfficiency: 1},
	{Name: "dtrsm", Precision: prec.Double, CanCPU: true, CanCUDA: true, GPUEfficiency: 0.83, CPUEfficiency: 0.9},
	{Name: "spotrf", Precision: prec.Single, CanCPU: true, CanCUDA: true, GPUEfficiency: 0.35, CPUEfficiency: 0.6},
}

// memoWorks mixes tile-sized kernels (which repeat, so the memo hits)
// with sizes that barely fill a board, zero work and a negative zero.
var memoWorks = []units.Flops{2 * 960 * 960 * 960, 960 * 960 * 960, 3.8e11, 1e6, 7.5e8, 0, units.Flops(math.Copysign(0, -1))}

// sameBits reports whether two floats have the same bit pattern.
func sameBits[F ~float64](a, b F) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// capLevel maps a byte onto a GPU cap the driver accepts: uncapped, or
// a point of [MinPower, TDP].
func capLevel(p *Platform, b byte) units.Watts {
	if b%5 == 0 {
		return 0
	}
	a := p.GPUArch
	return a.MinPower + (a.TDP-a.MinPower)*units.Watts(b)/255
}

// checkMemoSequence interprets prog as a sequence of four-byte
// operations on p — cap writes, throttle windows, board deaths and CPU
// cap writes interleaved with queries — and checks every value src
// answers, and every power OnTaskStart adds to p, against the device
// models computed directly.  extra, when set, answers a quarter of the
// queries, so a fuzzer can reach any work and efficiency.
func checkMemoSequence(p *Platform, src pointSource, prog []byte, extra *starpu.Task) error {
	var tasks []*starpu.Task
	for _, cl := range memoCodelets {
		for _, w := range memoWorks {
			tasks = append(tasks, &starpu.Task{Codelet: cl, Work: w})
		}
	}
	if extra != nil {
		tasks = append(tasks, extra)
	}
	ng := len(p.GPUs())
	for pc := 0; pc+4 <= len(prog); pc += 4 {
		op, a, b, c := prog[pc], int(prog[pc+1]), prog[pc+2], int(prog[pc+3])
		g := a % ng
		switch op % 8 {
		case 0:
			caps := make([]units.Watts, ng)
			for j, d := range p.GPUs() {
				caps[j] = d.ConfiguredLimit()
			}
			caps[g] = capLevel(p, b)
			_ = p.SetGPUCaps(caps) // a dead board refuses; the rest of the state stands
		case 1:
			p.ThrottleGPU(g, capLevel(p, b))
		case 2:
			p.ClearGPUThrottle(g)
		case 3:
			if b < 24 {
				p.KillGPU(g)
			}
		case 4:
			s := a % len(p.Packages())
			limit := units.Watts(0)
			if b%4 != 0 {
				arch := p.CPUArch
				floor := arch.TDP * units.Watts(arch.MinCapFrac)
				limit = floor + (arch.TDP-floor)*units.Watts(b)/255
			}
			_ = p.SetCPUCap(s, limit)
		default:
			i := a % p.NumWorkers()
			if a&1 == 0 {
				i = (a / 2) % ng // favour the CUDA workers
			}
			t := tasks[c%len(tasks)]
			if extra != nil && c >= 192 {
				t = extra
			}
			if err := checkPoint(p, src, i, t, op%8); err != nil {
				return fmt.Errorf("op %d: %w", pc/4, err)
			}
		}
	}
	return nil
}

// checkPoint checks one query kind against the direct device models.
func checkPoint(p *Platform, src pointSource, i int, t *starpu.Task, kind byte) error {
	pkg := p.Packages()[p.WorkerPackage(i)]
	core := pkg.BusyCorePower()
	var dur units.Seconds
	var accel units.Watts
	if g := p.WorkerGPU(i); g >= 0 {
		d := p.GPUs()[g]
		dur, _ = d.KernelTime(t.Codelet.Precision, t.Work, eff(t.Codelet.GPUEfficiency))
		op := d.Operate(t.Codelet.Precision, t.Work, eff(t.Codelet.GPUEfficiency))
		accel = op.Power - p.GPUArch.IdlePower
		if accel < 0 {
			accel = 0
		}
	} else {
		dur = pkg.KernelTime(t.Codelet.Precision, t.Work, eff(t.Codelet.CPUEfficiency))
	}
	switch kind {
	case 5:
		if got := src.Exec(i, t); !sameBits(got, dur) {
			return fmt.Errorf("Exec(%d, %s/%v) = %v, direct %v", i, t.Codelet.Name, t.Work, got, dur)
		}
		if got := src.ExecPower(i, t); !sameBits(got, accel+core) {
			return fmt.Errorf("ExecPower(%d, %s/%v) = %v, direct %v", i, t.Codelet.Name, t.Work, got, accel+core)
		}
	case 6:
		if a, h := src.SpanPower(i, t); !sameBits(a, accel) || !sameBits(h, core) {
			return fmt.Errorf("SpanPower(%d, %s/%v) = %v+%v, direct %v+%v", i, t.Codelet.Name, t.Work, a, h, accel, core)
		}
	case 7:
		p.OnTaskStart(i, t)
		added := p.addedPower[i]
		p.OnTaskEnd(i, t)
		if !sameBits(added, accel+core) {
			return fmt.Errorf("OnTaskStart(%d, %s/%v) added %v, direct %v", i, t.Codelet.Name, t.Work, added, accel+core)
		}
	}
	return nil
}

// limitBlind is a deliberately wrong memo that forgets the power limit
// in its key: it answers every repeat of (precision, work, efficiency)
// with the point resolved under whatever limit held the first time.
type limitBlind struct {
	p    *Platform
	gpu  map[[3]uint64]limitBlindPoint
	core map[int]units.Watts
}

type limitBlindPoint struct {
	dur   units.Seconds
	delta units.Watts
}

func (m *limitBlind) point(i int, t *starpu.Task) (units.Seconds, units.Watts, units.Watts) {
	pkg := m.p.WorkerPackage(i)
	core, ok := m.core[pkg]
	if !ok {
		core = m.p.Packages()[pkg].BusyCorePower()
		m.core[pkg] = core
	}
	g := m.p.WorkerGPU(i)
	if g < 0 {
		return m.p.Packages()[pkg].KernelTime(t.Codelet.Precision, t.Work, eff(t.Codelet.CPUEfficiency)), 0, core
	}
	k := [3]uint64{uint64(g)<<8 | uint64(t.Codelet.Precision), math.Float64bits(float64(t.Work)), math.Float64bits(eff(t.Codelet.GPUEfficiency))}
	pt, ok := m.gpu[k]
	if !ok {
		d, op := m.p.GPUs()[g].KernelTime(t.Codelet.Precision, t.Work, eff(t.Codelet.GPUEfficiency))
		pt = limitBlindPoint{dur: d, delta: max(op.Power-m.p.GPUArch.IdlePower, 0)}
		m.gpu[k] = pt
	}
	return pt.dur, pt.delta, core
}

func (m *limitBlind) Exec(i int, t *starpu.Task) units.Seconds {
	d, _, _ := m.point(i, t)
	return d
}

func (m *limitBlind) ExecPower(i int, t *starpu.Task) units.Watts {
	_, a, h := m.point(i, t)
	return a + h
}

func (m *limitBlind) SpanPower(i int, t *starpu.Task) (units.Watts, units.Watts) {
	_, a, h := m.point(i, t)
	return a, h
}

// randomProgram draws n operations from a seeded source.
func randomProgram(seed int64, n int) []byte {
	prog := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// TestOperatingPointMemoMatchesDevice replays seeded random sequences of
// power-state changes and queries on every platform: each memoized
// duration and power equals, bit for bit, what the device models
// return when asked directly at that moment.
func TestOperatingPointMemoMatchesDevice(t *testing.T) {
	for _, spec := range AllSpecs() {
		for seed := int64(1); seed <= 20; seed++ {
			p, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMemoSequence(p, p, randomProgram(seed, 2000), nil); err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
		}
	}
}

// TestLimitBlindMemoIsCaught checks that the sequences above can tell a
// memo keyed without the power limit from a correct one.
func TestLimitBlindMemoIsCaught(t *testing.T) {
	for _, spec := range AllSpecs() {
		p, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		blind := &limitBlind{p: p, gpu: map[[3]uint64]limitBlindPoint{}, core: map[int]units.Watts{}}
		if err := checkMemoSequence(p, blind, randomProgram(1, 400), nil); err == nil {
			t.Errorf("%s: a memo that ignores the power limit passed the equivalence check", spec.Name)
		}
	}
}

// TestTaskCycleNoAllocs pins that a warm Exec → OnTaskStart → OnTaskEnd
// cycle, on a CUDA worker and on a CPU worker, allocates nothing.
func TestTaskCycleNoAllocs(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	task := &starpu.Task{Codelet: memoCodelets[2], Work: memoWorks[0]}
	cpuWorker := p.GPUCount
	cycle := func() {
		for _, i := range []int{0, cpuWorker} {
			p.Exec(i, task)
			p.OnTaskStart(i, task)
			p.OnTaskEnd(i, task)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("warm task cycle allocates %.2f times, want 0", allocs)
	}
}

// FuzzOperatingPointMemo checks the memo-versus-direct property over
// fuzzed sequences of cap, throttle, death and CPU cap writes, and
// fuzzed work and efficiency values.
func FuzzOperatingPointMemo(f *testing.F) {
	f.Add(randomProgram(1, 64), 3.8e11, 0.83, false)
	f.Add(randomProgram(2, 64), 0.0, 0.0, true)
	f.Add([]byte{5, 0, 0, 200, 0, 0, 40, 0, 5, 0, 0, 200, 1, 0, 1, 0, 6, 0, 0, 200, 2, 0, 0, 0, 7, 0, 0, 200}, 1e9, 1.0, false)
	f.Fuzz(func(t *testing.T, prog []byte, work, effv float64, single bool) {
		pr := prec.Double
		if single {
			pr = prec.Single
		}
		cl := &starpu.Codelet{Name: "fuzz", Precision: pr, CanCPU: true, CanCUDA: true, GPUEfficiency: effv, CPUEfficiency: effv}
		extra := &starpu.Task{Codelet: cl, Work: units.Flops(work)}
		p, err := New(FourA100Spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMemoSequence(p, p, prog, extra); err != nil {
			t.Fatal(err)
		}
	})
}
