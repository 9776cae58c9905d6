// Package platform assembles simulated compute nodes out of the CPU and
// GPU device models and exposes them to the runtime as starpu.Machine
// implementations: workers, memory nodes, interconnect links and power
// meters, plus the NVML/RAPL facades experiment code uses to set caps
// and read Joules.
//
// The three builders mirror the paper's Grid'5000 test beds (§IV-A).
package platform

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/eventsim"
	"repro/internal/gpu"
	"repro/internal/nvml"
	"repro/internal/rapl"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Spec declares a node's hardware inventory.
type Spec struct {
	// Name is the paper's platform label ("32-AMD-4-A100").
	Name string
	// CPUArch and Sockets describe the host processors.
	CPUArch *cpu.Arch
	Sockets int
	// GPUArch and GPUCount describe the accelerators.
	GPUArch  *gpu.Arch
	GPUCount int
	// HostLink is the host-to-device bandwidth per GPU (PCIe).
	HostLink units.BytesPerSec
	// PeerLink is the direct device-to-device bandwidth (NVLink);
	// zero routes peer traffic through the host at half bandwidth.
	PeerLink units.BytesPerSec
	// LinkLatency is the per-transfer setup latency.
	LinkLatency units.Seconds
}

// Validate reports an error for an incoherent spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("platform: spec without name")
	case s.CPUArch == nil || s.Sockets <= 0:
		return fmt.Errorf("platform: %s: no CPU sockets", s.Name)
	case s.GPUArch == nil || s.GPUCount <= 0:
		return fmt.Errorf("platform: %s: no GPUs", s.Name)
	case s.HostLink <= 0:
		return fmt.Errorf("platform: %s: no host link bandwidth", s.Name)
	case s.Sockets*s.CPUArch.Cores <= s.GPUCount:
		return fmt.Errorf("platform: %s: fewer cores than GPUs", s.Name)
	}
	return nil
}

// workerDesc maps a runtime worker onto the hardware.
type workerDesc struct {
	info starpu.WorkerInfo
	gpu  int // GPU index for CUDA workers, -1 otherwise
	pkg  int // package owning this worker's core (CPU worker or pinned core)

	// Memoized WorkerClass string.  classLimit is the power limit the
	// string was rendered for and classBare whether it was rendered under
	// ClassIgnoresCap; the string is rebuilt only when either changes.
	class      string
	classLimit units.Watts
	classBare  bool
}

// board is the platform's bookkeeping for one GPU.
type board struct {
	// work accumulates completed flops, the signal the dynamic capping
	// controller optimises against.
	work units.Flops
	// Cap-write circuit breaker (see resilience.go): consecutive
	// exhausted writes, and whether the breaker has tripped.
	breakerFails int
	breakerOpen  bool
	// memo caches the board's operating points (memo.go).
	memo [opMemoSize]opEntry
}

// Platform is a live simulated node.
type Platform struct {
	Spec

	// ClassIgnoresCap strips the power state from worker-class strings,
	// so performance models calibrated at one cap are (wrongly) reused
	// at another — the "stale models" ablation.  The paper's protocol
	// corresponds to the default (false): recalibration after every cap
	// change, which the cap-embedded class keys enforce structurally.
	ClassIgnoresCap bool

	engine    *eventsim.Engine
	gpus      []*gpu.Device
	packages  []*cpu.Package
	gpuMeters []*eventsim.PowerMeter
	cpuMeters []*eventsim.PowerMeter

	// NVML and RAPL are the measurement/capping facades, the only
	// interfaces experiment code should use to touch power state.
	NVML *nvml.API
	RAPL *rapl.Component

	workers []workerDesc
	// links holds the contended interconnect per unordered node pair
	// (index lo*NumNodes()+hi), created on first use.
	links []*eventsim.Resource

	// boards holds the per-GPU bookkeeping, coreMemo each package's
	// memoized busy-core draw (memo.go).
	boards   []board
	coreMemo []corePower

	// addedPower remembers the exact wattage added per busy worker so
	// a cap change between tasks cannot unbalance the meters.
	addedPower []units.Watts

	// capStats accumulates the verified cap applicator's retry/clamp
	// counts, capFaults its exhausted writes and breaker trips in the
	// order they happened (see resilience.go).
	capStats  CapApplyStats
	capFaults []CapFault

	// breakerThreshold sets when a board's cap-write circuit breaker
	// trips (see resilience.go).
	breakerThreshold int
}

// New builds a node from a spec: one CUDA worker per GPU (each with a
// pinned, dedicated host core — StarPU's driver-thread convention) and
// one CPU worker per remaining core.
func New(spec Spec) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		Spec:   spec,
		engine: eventsim.NewEngine(),
	}
	for i := 0; i < spec.GPUCount; i++ {
		p.gpus = append(p.gpus, gpu.NewDevice(spec.GPUArch, i))
		p.gpuMeters = append(p.gpuMeters, p.engine.NewMeter(fmt.Sprintf("GPU%d", i), spec.GPUArch.IdlePower))
	}
	for i := 0; i < spec.Sockets; i++ {
		p.packages = append(p.packages, cpu.NewPackage(spec.CPUArch, i))
		p.cpuMeters = append(p.cpuMeters, p.engine.NewMeter(fmt.Sprintf("CPU%d", i), spec.CPUArch.UncorePower))
	}

	// CUDA workers first (worker i drives GPU i from memory node i+1),
	// with pinned cores spread over the sockets.
	pinned := make([]int, spec.Sockets)
	for i := 0; i < spec.GPUCount; i++ {
		pkg := i % spec.Sockets
		pinned[pkg]++
		p.workers = append(p.workers, workerDesc{
			info: starpu.WorkerInfo{Name: fmt.Sprintf("cuda%d", i), Kind: starpu.CUDAWorker, Node: i + 1},
			gpu:  i,
			pkg:  pkg,
		})
	}
	// CPU workers: remaining cores, block-assigned per socket.
	for s := 0; s < spec.Sockets; s++ {
		for c := pinned[s]; c < spec.CPUArch.Cores; c++ {
			p.workers = append(p.workers, workerDesc{
				info: starpu.WorkerInfo{Name: fmt.Sprintf("cpu%d_%d", s, c), Kind: starpu.CPUWorker, Node: 0},
				gpu:  -1,
				pkg:  s,
			})
		}
	}
	p.addedPower = make([]units.Watts, len(p.workers))
	p.links = make([]*eventsim.Resource, p.NumNodes()*p.NumNodes())
	p.boards = make([]board, spec.GPUCount)
	p.coreMemo = make([]corePower, spec.Sockets)

	sources := make([]nvml.EnergySource, len(p.gpuMeters))
	for i, m := range p.gpuMeters {
		sources[i] = m
	}
	p.NVML = nvml.New(p.gpus, sources)
	p.NVML.Init()

	raplSources := make([]rapl.EnergySource, len(p.cpuMeters))
	for i, m := range p.cpuMeters {
		raplSources[i] = m
	}
	p.RAPL = rapl.New(p.packages, raplSources)
	return p, nil
}

// ---- starpu.Machine implementation ----

// Engine exposes the node's discrete-event clock.
func (p *Platform) Engine() *eventsim.Engine { return p.engine }

// NumWorkers reports the worker count (GPUs + spare cores).
func (p *Platform) NumWorkers() int { return len(p.workers) }

// Worker describes worker i.
func (p *Platform) Worker(i int) starpu.WorkerInfo { return p.workers[i].info }

// WorkerClass embeds the device's current power limit, so performance
// model entries are keyed per power state.  The rendered string is
// cached per worker and rebuilt only when the device's limit changes:
// the schedulers ask for every candidate worker of every push, and the
// Sprintf here was the single largest CPU and allocation site in the
// cell profile.  Returning the identical string instance also lets the
// runtime's estimate cache compare classes by pointer.
func (p *Platform) WorkerClass(i int) string {
	w := &p.workers[i]
	var limit units.Watts
	if !p.ClassIgnoresCap {
		if w.gpu >= 0 {
			limit = p.gpus[w.gpu].PowerLimit()
		} else {
			limit = p.packages[w.pkg].PowerLimit()
		}
	}
	if w.class != "" && w.classBare == p.ClassIgnoresCap && w.classLimit == limit {
		return w.class
	}
	w.classBare = p.ClassIgnoresCap
	w.classLimit = limit
	switch {
	case p.ClassIgnoresCap && w.gpu >= 0:
		w.class = fmt.Sprintf("cuda%d", w.gpu)
	case p.ClassIgnoresCap:
		w.class = fmt.Sprintf("cpu%d", w.pkg)
	case w.gpu >= 0:
		w.class = fmt.Sprintf("cuda%d@%.0fW", w.gpu, float64(limit))
	default:
		w.class = fmt.Sprintf("cpu%d@%.0fW", w.pkg, float64(limit))
	}
	return w.class
}

// Domain reports worker i's power domain: the GPU index for a CUDA
// worker, GPUCount + socket for a CPU worker.  Workers of one socket
// share its cap (hence class string), kernel rates and busy-core power,
// which is the starpu.DomainModel contract.
func (p *Platform) Domain(i int) int {
	w := &p.workers[i]
	if w.gpu >= 0 {
		return w.gpu
	}
	return len(p.gpus) + w.pkg
}

// CanRun gates codelets by worker kind; a CUDA worker whose board fell
// off the bus is never eligible.
func (p *Platform) CanRun(i int, c *starpu.Codelet) bool {
	if g := p.workers[i].gpu; g >= 0 {
		return c.CanCUDA && p.gpus[g].Alive()
	}
	return c.CanCPU
}

// Exec costs one task on worker i under the current power state.
func (p *Platform) Exec(i int, t *starpu.Task) units.Seconds {
	w := p.workers[i]
	if w.gpu >= 0 {
		d, _ := p.gpuPoint(w.gpu, t)
		return d
	}
	return p.packages[w.pkg].KernelTime(t.Codelet.Precision, t.Work, eff(t.Codelet.CPUEfficiency))
}

func eff(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// OnTaskStart raises the meters: the GPU jumps to its kernel operating
// power and its pinned host core spins; a CPU worker burns one core.
func (p *Platform) OnTaskStart(i int, t *starpu.Task) {
	w := p.workers[i]
	if w.gpu >= 0 {
		delta := p.gpuDelta(w.gpu, t)
		p.gpuMeters[w.gpu].AddPower(delta)
		core := p.busyCorePower(w.pkg)
		p.cpuMeters[w.pkg].AddPower(core)
		p.addedPower[i] = delta + core
		return
	}
	core := p.busyCorePower(w.pkg)
	p.cpuMeters[w.pkg].AddPower(core)
	p.addedPower[i] = core
}

// OnTaskEnd lowers the meters by exactly what OnTaskStart added and
// credits the completed flops.
func (p *Platform) OnTaskEnd(i int, t *starpu.Task) {
	if w := p.workers[i]; w.gpu >= 0 {
		p.boards[w.gpu].work += t.Work
	}
	p.removeTaskPower(i)
}

// removeTaskPower lowers the meters by exactly what OnTaskStart added
// (shared by completion and abort paths).
func (p *Platform) removeTaskPower(i int) {
	w := p.workers[i]
	if w.gpu >= 0 {
		core := p.busyCorePower(w.pkg)
		gpuPart := p.addedPower[i] - core
		// Reconstruct the split: the core part was measured at start; if
		// the cap changed mid-task the residual lands on the GPU meter,
		// keeping the total exact.
		if gpuPart < 0 {
			gpuPart = 0
		}
		p.gpuMeters[w.gpu].AddPower(-gpuPart)
		p.cpuMeters[w.pkg].AddPower(-(p.addedPower[i] - gpuPart))
	} else {
		p.cpuMeters[w.pkg].AddPower(-p.addedPower[i])
	}
	p.addedPower[i] = 0
}

// NumNodes reports host + one node per GPU.
func (p *Platform) NumNodes() int { return 1 + len(p.gpus) }

// TransferTime estimates an uncontended transfer.
func (p *Platform) TransferTime(from, to int, b units.Bytes) units.Seconds {
	if from == to {
		return 0
	}
	bw := p.HostLink
	lat := p.LinkLatency
	if from != 0 && to != 0 { // device to device
		if p.PeerLink > 0 {
			bw = p.PeerLink
		} else {
			bw = p.HostLink / 2 // staged through host RAM
			lat *= 2
		}
	}
	return lat + units.TransferTime(b, bw)
}

// ReserveLink books the (contended) link for a real transfer.
func (p *Platform) ReserveLink(from, to int, at units.Seconds, b units.Bytes) (units.Seconds, units.Seconds) {
	lo, hi := min(from, to), max(from, to)
	l := &p.links[lo*p.NumNodes()+hi]
	if *l == nil {
		*l = eventsim.NewResource(fmt.Sprintf("link%d-%d", lo, hi))
	}
	return (*l).Reserve(at, p.TransferTime(from, to, b))
}

var _ starpu.Machine = (*Platform)(nil)
var _ starpu.PowerModel = (*Platform)(nil)
var _ starpu.CapacityModel = (*Platform)(nil)
var _ starpu.DomainModel = (*Platform)(nil)

// NodeCapacity bounds each GPU's memory node by the board's memory
// size; host RAM (node 0) is unbounded.
func (p *Platform) NodeCapacity(n int) units.Bytes {
	if n == 0 {
		return 0
	}
	return p.GPUArch.MemoryBytes
}

// ExecPower reports the marginal draw while t runs on worker i — the
// signal the energy-aware dmdae scheduler weighs.  For a CUDA worker it
// is the kernel's operating power above idle plus the pinned host core;
// for a CPU worker, one busy core.
func (p *Platform) ExecPower(i int, t *starpu.Task) units.Watts {
	w := p.workers[i]
	core := p.busyCorePower(w.pkg)
	if w.gpu >= 0 {
		return p.gpuDelta(w.gpu, t) + core
	}
	return core
}

// GPUWorkDone reports the flops completed on GPU i since construction
// (the dynamic capping controller's throughput signal).
func (p *Platform) GPUWorkDone(i int) units.Flops { return p.boards[i].work }

// ---- span-trace model (spantrace.Model) ----

// WorkerGPU reports the GPU index worker i drives, or -1 for a plain
// CPU worker.
func (p *Platform) WorkerGPU(i int) int { return p.workers[i].gpu }

// WorkerPackage reports the CPU package hosting worker i's core (the
// pinned driver core for CUDA workers).
func (p *Platform) WorkerPackage(i int) int { return p.workers[i].pkg }

// SpanPower reports the marginal draw OnTaskStart adds while t runs on
// worker i, split into the accelerator part (zero for CPU workers) and
// the host-core part.  Queried at task-start virtual time it reproduces
// the meter increments exactly, which is what lets spantrace's per-span
// energies sum back to the device meters.
func (p *Platform) SpanPower(i int, t *starpu.Task) (accel, host units.Watts) {
	w := p.workers[i]
	host = p.busyCorePower(w.pkg)
	if w.gpu >= 0 {
		accel = p.gpuDelta(w.gpu, t)
	}
	return accel, host
}

// GPULevel maps GPU g's effective limit onto the paper's L/B/H
// notation; a dead board reads "_" (the degraded-plan notation).
func (p *Platform) GPULevel(g int) string {
	if !p.gpus[g].Alive() {
		return "_"
	}
	limit := p.gpus[g].PowerLimit()
	switch {
	case limit <= p.GPUArch.MinPower:
		return "L"
	case limit >= p.GPUArch.TDP:
		return "H"
	}
	return "B"
}

// IdleBaselines reports each device meter's baseline draw (GPU idle
// power, CPU uncore power), keyed like DeviceEnergy.
func (p *Platform) IdleBaselines() map[string]units.Watts {
	out := make(map[string]units.Watts, len(p.gpus)+len(p.packages))
	for i := range p.gpus {
		out[fmt.Sprintf("GPU%d", i)] = p.GPUArch.IdlePower
	}
	for i := range p.packages {
		out[fmt.Sprintf("CPU%d", i)] = p.CPUArch.UncorePower
	}
	return out
}

// ---- power and measurement helpers ----

// GPUs exposes the simulated boards (tests and tools only).
func (p *Platform) GPUs() []*gpu.Device { return p.gpus }

// Packages exposes the simulated sockets (tests and tools only).
func (p *Platform) Packages() []*cpu.Package { return p.packages }

// SetGPUCaps applies one cap per GPU through NVML (0 = uncapped), each
// via the verified applicator: set, read back, retry transient driver
// failures with exponential virtual-time backoff (see resilience.go).
func (p *Platform) SetGPUCaps(caps []units.Watts) error {
	if len(caps) != len(p.gpus) {
		return fmt.Errorf("platform: %d caps for %d GPUs", len(caps), len(p.gpus))
	}
	for i, c := range caps {
		if err := p.applyGPUCap(i, c); err != nil {
			return err
		}
	}
	return nil
}

// SetCPUCap applies a RAPL cap on one socket (0 = uncapped) through the
// same verified applicator as the GPU caps.  RAPL sysfs writes have no
// transient failure mode today, so the retry arm never fires; the
// read-back keeps the contract uniform.
func (p *Platform) SetCPUCap(socket int, cap units.Watts) error {
	if socket < 0 || socket >= len(p.packages) {
		return p.RAPL.SetPowerLimit(socket, cap) // let RAPL report the range error
	}
	err := p.verifiedApply(
		func() (bool, error) { return false, p.RAPL.SetPowerLimit(socket, cap) },
		func() bool {
			return cap == 0 || p.packages[socket].PowerLimit() == cap
		},
	)
	if err != nil {
		return fmt.Errorf("platform: socket %d: cap %s rejected: %w", socket, capLabel(cap, p.CPUArch.TDP), err)
	}
	return nil
}

// DeviceEnergy reports per-device Joules since the last ResetMeters.
// Keys are "CPU0", "CPU1", "GPU0", ...
func (p *Platform) DeviceEnergy() map[string]units.Joules {
	out := make(map[string]units.Joules, len(p.cpuMeters)+len(p.gpuMeters))
	for _, m := range p.cpuMeters {
		out[m.Name()] = m.Energy()
	}
	for _, m := range p.gpuMeters {
		out[m.Name()] = m.Energy()
	}
	return out
}

// TotalEnergy reports the node's Joules since the last ResetMeters.
func (p *Platform) TotalEnergy() units.Joules {
	var sum units.Joules
	for _, e := range p.DeviceEnergy() {
		sum += e
	}
	return sum
}

// EnablePowerTraces starts exact per-device power-step recording on all
// meters (for power-timeline plots à la a wattmeter trace).
func (p *Platform) EnablePowerTraces() {
	for _, m := range p.cpuMeters {
		m.EnableTrace()
	}
	for _, m := range p.gpuMeters {
		m.EnableTrace()
	}
}

// PowerTraces reports the recorded power steps per device name.
func (p *Platform) PowerTraces() map[string][]eventsim.PowerSample {
	out := make(map[string][]eventsim.PowerSample)
	for _, m := range p.cpuMeters {
		if tr := m.Trace(); tr != nil {
			out[m.Name()] = tr
		}
	}
	for _, m := range p.gpuMeters {
		if tr := m.Trace(); tr != nil {
			out[m.Name()] = tr
		}
	}
	return out
}

// ResetMeters zeroes the energy integrals (between the calibration pass
// and the measured pass).
func (p *Platform) ResetMeters() {
	for _, m := range p.cpuMeters {
		m.Reset()
	}
	for _, m := range p.gpuMeters {
		m.Reset()
	}
}
