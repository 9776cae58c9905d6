// Package cpu models multicore CPU packages under RAPL-style power
// capping: per-core kernel throughput, package power as a function of
// busy cores, and the frequency throttling a package cap induces.
//
// The model is deliberately simpler than the GPU one — the paper only
// caps one CPU (at 48 % of TDP on the Intel platform) and otherwise uses
// the CPUs as slower, less energy-efficient workers whose Joules dilute
// the GPU savings (§V-C).
package cpu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/prec"
	"repro/internal/units"
)

// Arch describes one CPU package (one socket).
type Arch struct {
	// Name is the marketing name ("Xeon Gold 6126").
	Name string
	// Cores is the core count per socket.
	Cores int
	// BaseClock is the all-core sustained clock.
	BaseClock units.Hertz
	// TDP is the package power limit (the default RAPL cap).
	TDP units.Watts
	// UncorePower is the package draw with all cores idle.
	UncorePower units.Watts
	// CorePower is the extra draw of one busy core at full clock.
	CorePower units.Watts
	// CoreRate maps precision to one core's sustained GEMM throughput at
	// full clock (MKL-class blocked kernels).
	CoreRate map[prec.Precision]units.FlopsPerSec
	// TaskOverhead is the fixed per-task runtime cost on a CPU worker.
	TaskOverhead units.Seconds
	// MinCapFrac is the lowest stable cap as a fraction of TDP; the paper
	// reports instability below 48 % on the Xeon 6126.
	MinCapFrac float64
}

// Beta is the dynamic-power exponent for core power vs clock.
const beta = 3

// alphaCPU is the perf-vs-clock exponent; CPU GEMM is compute bound, so
// performance tracks frequency almost linearly.
const alphaCPU = 0.95

// Validate reports an error for meaningless parameters.
func (a *Arch) Validate() error {
	switch {
	case a.Cores <= 0:
		return fmt.Errorf("cpu: %s: cores %d must be positive", a.Name, a.Cores)
	case a.TDP <= 0:
		return fmt.Errorf("cpu: %s: TDP %v must be positive", a.Name, a.TDP)
	case a.UncorePower <= 0 || a.UncorePower >= a.TDP:
		return fmt.Errorf("cpu: %s: uncore power %v must be in (0, TDP)", a.Name, a.UncorePower)
	case a.CorePower <= 0:
		return fmt.Errorf("cpu: %s: core power %v must be positive", a.Name, a.CorePower)
	case len(a.CoreRate) == 0:
		return fmt.Errorf("cpu: %s: no core rates", a.Name)
	}
	return nil
}

// Package is one socket with mutable RAPL state.  Safe for concurrent
// use: the active limit is one atomic word, so a read is a plain load.
type Package struct {
	arch  *Arch
	index int

	limit atomic.Uint64 // math.Float64bits of the active cap (TDP when uncapped)
}

// NewPackage returns socket #index of the given architecture, uncapped.
func NewPackage(arch *Arch, index int) *Package {
	p := &Package{arch: arch, index: index}
	p.limit.Store(math.Float64bits(float64(arch.TDP)))
	return p
}

// Arch reports the package's architecture.
func (p *Package) Arch() *Arch { return p.arch }

// Index reports the socket number.
func (p *Package) Index() int { return p.index }

// Name reports "<arch> pkg<index>".
func (p *Package) Name() string { return fmt.Sprintf("%s pkg%d", p.arch.Name, p.index) }

// SetPowerLimit applies a RAPL package cap; zero restores the default.
// Caps below the stability floor are rejected (the paper observed
// instability under 48 % of TDP).
func (p *Package) SetPowerLimit(cap units.Watts) error {
	if cap != 0 {
		min := units.Watts(float64(p.arch.TDP) * p.arch.MinCapFrac)
		if cap < min || cap > p.arch.TDP {
			return fmt.Errorf("cpu: %s: power limit %v outside [%v, %v]", p.arch.Name, cap, min, p.arch.TDP)
		}
	}
	if cap == 0 {
		cap = p.arch.TDP
	}
	p.limit.Store(math.Float64bits(float64(cap)))
	return nil
}

// PowerLimit reports the active cap (TDP when uncapped).
func (p *Package) PowerLimit() units.Watts {
	return units.Watts(math.Float64frombits(p.limit.Load()))
}

// Uncapped reports whether the default limit is active.
func (p *Package) Uncapped() bool { return p.PowerLimit() == p.arch.TDP }

// ClockFraction reports the all-core clock fraction the cap allows,
// sized for the worst case of every core busy (RAPL enforces the limit
// regardless of instantaneous occupancy, and HPC runs keep cores busy).
func (p *Package) ClockFraction() float64 { return p.clockFractionAt(p.PowerLimit()) }

func (p *Package) clockFractionAt(cap units.Watts) float64 {
	full := p.arch.UncorePower + units.Watts(float64(p.arch.Cores)*float64(p.arch.CorePower))
	if cap >= full {
		return 1
	}
	budget := float64(cap - p.arch.UncorePower)
	if budget <= 0 {
		return 0.25 // hardware floor: RAPL cannot gate the uncore
	}
	x := math.Pow(budget/(float64(p.arch.Cores)*float64(p.arch.CorePower)), 1.0/beta)
	return units.Clamp(x, 0.25, 1)
}

// CoreRate reports one busy core's throughput under the current cap.
func (p *Package) CoreRate(pr prec.Precision) units.FlopsPerSec {
	base := p.arch.CoreRate[pr]
	x := p.ClockFraction()
	return units.FlopsPerSec(float64(base) * math.Pow(x, alphaCPU))
}

// KernelTime reports the duration of a kernel of the given work on one
// core, including the fixed task overhead.  efficiencyFactor derates the
// GEMM rate for less regular kernels.
func (p *Package) KernelTime(pr prec.Precision, work units.Flops, efficiencyFactor float64) units.Seconds {
	rate := p.CoreRate(pr)
	if efficiencyFactor > 0 && efficiencyFactor < 1 {
		rate = units.FlopsPerSec(float64(rate) * efficiencyFactor)
	}
	return p.arch.TaskOverhead + units.DurationFor(work, rate)
}

// IdlePower reports the package draw with all cores idle.
func (p *Package) IdlePower() units.Watts { return p.arch.UncorePower }

// BusyCorePower reports the incremental draw of one busy core under the
// current cap.
func (p *Package) BusyCorePower() units.Watts { return p.BusyCorePowerAt(p.PowerLimit()) }

// BusyCorePowerAt is BusyCorePower under an explicit package limit, a
// pure function of it.
func (p *Package) BusyCorePowerAt(limit units.Watts) units.Watts {
	x := p.clockFractionAt(limit)
	return units.Watts(float64(p.arch.CorePower) * math.Pow(x, beta))
}

// PackagePower reports total package power with n busy cores.
func (p *Package) PackagePower(nBusy int) units.Watts {
	if nBusy < 0 {
		nBusy = 0
	}
	if nBusy > p.arch.Cores {
		nBusy = p.arch.Cores
	}
	return p.arch.UncorePower + units.Watts(float64(nBusy)*float64(p.BusyCorePower()))
}

// The paper's three CPU models (§IV-A).  Core GEMM rates are set so a
// platform's full CPU complement is roughly 1/20 of one of its GPUs
// (§III-C: "the GEMM kernel is approximately 20 times faster on GPUs
// than on CPUs").
var (
	archOnce sync.Once
	archs    map[string]*Arch
)

// Architecture names.
const (
	XeonGold6126Name = "Xeon Gold 6126"
	EPYC7452Name     = "EPYC 7452"
	EPYC7513Name     = "EPYC 7513"
)

func buildArchs() {
	archs = map[string]*Arch{
		// Skylake-SP, 12 cores @ 2.60 GHz, two AVX-512 FMA units
		// (MKL DGEMM sustains ~55 Gflop/s/core at all-core AVX clocks).
		XeonGold6126Name: {
			Name:        XeonGold6126Name,
			Cores:       12,
			BaseClock:   units.Hertz(2600 * units.Mega),
			TDP:         125,
			UncorePower: 28,
			CorePower:   8.0,
			CoreRate: map[prec.Precision]units.FlopsPerSec{
				prec.Double: units.GFlopsPerSec(70),
				prec.Single: units.GFlopsPerSec(140),
			},
			TaskOverhead: 4e-6,
			MinCapFrac:   0.48,
		},
		// Zen2, 32 cores @ 2.35 GHz, AVX2.  The paper quotes a 125 W TDP
		// for this platform's sockets; we follow the paper.  The Zen IO
		// die keeps package idle power high.
		EPYC7452Name: {
			Name:        EPYC7452Name,
			Cores:       32,
			BaseClock:   units.Hertz(2350 * units.Mega),
			TDP:         125,
			UncorePower: 62,
			CorePower:   1.9,
			CoreRate: map[prec.Precision]units.FlopsPerSec{
				prec.Double: units.GFlopsPerSec(30),
				prec.Single: units.GFlopsPerSec(60),
			},
			TaskOverhead: 4e-6,
			MinCapFrac:   0.48,
		},
		// Zen3, 32 cores @ 2.60 GHz, AVX2, large IO die.
		EPYC7513Name: {
			Name:        EPYC7513Name,
			Cores:       32,
			BaseClock:   units.Hertz(2600 * units.Mega),
			TDP:         200,
			UncorePower: 68,
			CorePower:   4.1,
			CoreRate: map[prec.Precision]units.FlopsPerSec{
				prec.Double: units.GFlopsPerSec(33),
				prec.Single: units.GFlopsPerSec(66),
			},
			TaskOverhead: 4e-6,
			MinCapFrac:   0.48,
		},
	}
}

// Lookup returns the named CPU architecture.
func Lookup(name string) (*Arch, error) {
	archOnce.Do(buildArchs)
	a, ok := archs[name]
	if !ok {
		return nil, fmt.Errorf("cpu: unknown architecture %q (known: %s, %s, %s)",
			name, XeonGold6126Name, EPYC7452Name, EPYC7513Name)
	}
	return a, nil
}

// XeonGold6126 returns the Skylake-SP socket of platform 24-Intel-2-V100.
func XeonGold6126() *Arch { return mustLookup(XeonGold6126Name) }

// EPYC7452 returns the Zen2 socket of platform 64-AMD-2-A100.
func EPYC7452() *Arch { return mustLookup(EPYC7452Name) }

// EPYC7513 returns the Zen3 socket of platform 32-AMD-4-A100.
func EPYC7513() *Arch { return mustLookup(EPYC7513Name) }

func mustLookup(name string) *Arch {
	a, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}
