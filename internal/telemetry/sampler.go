package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/nvml"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/starpu"
	"repro/internal/units"
)

// SamplerConfig tunes the time-series recorder.
type SamplerConfig struct {
	// Interval is the virtual time between samples (default 0.05 s).
	Interval units.Seconds
	// MaxSamples bounds each series (default 100000); once full, new
	// samples update the live gauges but are not retained.
	MaxSamples int
	// Done stops the sampler; defaults to "runtime has no pending tasks".
	Done func() bool
}

// GPUSample is one point of a GPU's power/cap/energy time series.
type GPUSample struct {
	T       float64 `json:"t"`
	PowerW  float64 `json:"power_w"`
	CapW    float64 `json:"cap_w"`
	Level   string  `json:"level"`
	EnergyJ float64 `json:"energy_j"`
}

// WorkerSample is one point of a worker's scheduling time series.
type WorkerSample struct {
	T        float64 `json:"t"`
	Queue    int     `json:"queue"`
	Inflight int     `json:"inflight"`
	BusyFrac float64 `json:"busy_frac"`
	Tasks    int     `json:"tasks"`
}

// CapEvent is one externally observed cap change (from the dynamic
// capping controller), exact to the event rather than the sample grid.
type CapEvent struct {
	T    float64 `json:"t"`
	GPU  int     `json:"gpu"`
	OldW float64 `json:"old_w"`
	NewW float64 `json:"new_w"`
}

// Sampler records per-GPU power draw, cap state (L/B/H), cumulative
// energy, and per-worker queue depth / busy fraction as time series on
// the simulation clock, mirroring the live gauges into a Registry.  It
// reschedules itself like the dyncap controller and stops when Done
// reports true (taking one final closing sample).
type Sampler struct {
	reg      *Registry
	plat     *platform.Platform
	rt       *starpu.Runtime
	interval units.Seconds
	maxSamp  int
	done     func() bool
	handles  []*nvml.Device

	gPower  *GaugeVec
	gCap    *GaugeVec
	gLevel  *GaugeVec
	gEnergy *GaugeVec
	wQueue  *GaugeVec
	wFlight *GaugeVec
	wBusy   *GaugeVec
	wTasks  *GaugeVec
	simTime *GaugeVec
	ticks   *CounterVec
	capChg  *CounterVec

	// Label formatting and labelled-series resolution dominated the
	// per-tick cost, so every series the sampler writes is bound once at
	// attach time; sample() then only sets values.  lastGPU/lastWorker
	// remember what each gauge last held, making the mirror writes
	// change-driven: a tick where a device's state did not move touches
	// no gauge at all.
	gpuBound   []gpuGauges
	wkBound    []workerGauges
	capBound   []Counter
	ticksBound Counter
	timeBound  Gauge
	lastGPU    []GPUSample
	lastWorker []WorkerSample

	mu        sync.Mutex
	gpuSeries [][]GPUSample
	wkSeries  [][]WorkerSample
	capEvents []CapEvent
	lastBusy  []units.Seconds
	lastT     units.Seconds
	stopped   bool
}

// gpuGauges and workerGauges hold one device's bound series.
type gpuGauges struct{ power, cap, level, energy Gauge }

type workerGauges struct{ queue, inflight, busy, tasks Gauge }

// AttachSampler builds a sampler over a platform and runtime, registers
// its gauges in reg, and schedules the first tick on the platform's
// virtual clock.  Call before the runtime's Run.
func AttachSampler(reg *Registry, plat *platform.Platform, rt *starpu.Runtime, cfg SamplerConfig) (*Sampler, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 0.05
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 100000
	}
	s := &Sampler{
		reg:      reg,
		plat:     plat,
		rt:       rt,
		interval: cfg.Interval,
		maxSamp:  cfg.MaxSamples,
		done:     cfg.Done,
	}
	if s.done == nil {
		s.done = func() bool { return rt.Pending() == 0 }
	}
	n, ret := plat.NVML.DeviceGetCount()
	if err := ret.Error(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		h, ret := plat.NVML.DeviceGetHandleByIndex(i)
		if err := ret.Error(); err != nil {
			return nil, err
		}
		s.handles = append(s.handles, h)
	}
	s.gpuSeries = make([][]GPUSample, n)
	s.wkSeries = make([][]WorkerSample, len(rt.Workers()))
	s.lastBusy = make([]units.Seconds, len(rt.Workers()))
	for i, w := range rt.Workers() {
		s.lastBusy[i] = w.BusyTime()
	}
	s.lastT = plat.Engine().Now()

	s.gPower = reg.NewGauge("capsim_gpu_power_watts", "Instantaneous GPU power draw.", "gpu")
	s.gCap = reg.NewGauge("capsim_gpu_cap_watts", "Active GPU power cap.", "gpu")
	s.gLevel = reg.NewGauge("capsim_gpu_cap_level", "Cap state: 0=L (min), 1=B (best), 2=H (default).", "gpu")
	s.gEnergy = reg.NewGauge("capsim_gpu_energy_joules", "Cumulative GPU energy since meter reset.", "gpu")
	s.wQueue = reg.NewGauge("capsim_worker_queue_depth", "Scheduler ready-queue depth per worker.", "worker", "kind")
	s.wFlight = reg.NewGauge("capsim_worker_inflight", "Tasks popped but not completed per worker.", "worker", "kind")
	s.wBusy = reg.NewGauge("capsim_worker_busy_fraction", "Fraction of the last sample interval spent computing.", "worker", "kind")
	s.wTasks = reg.NewGauge("capsim_worker_tasks_total", "Tasks completed per worker.", "worker", "kind")
	s.simTime = reg.NewGauge("capsim_sim_time_seconds", "Virtual time of the last sample.")
	s.ticks = reg.NewCounter("capsim_sampler_ticks_total", "Samples taken.")
	s.capChg = reg.NewCounter("capsim_cap_changes_total", "Cap changes observed per GPU.", "gpu")

	for i := range s.handles {
		label := fmt.Sprintf("%d", i)
		s.gpuBound = append(s.gpuBound, gpuGauges{
			power:  s.gPower.With(label),
			cap:    s.gCap.With(label),
			level:  s.gLevel.With(label),
			energy: s.gEnergy.With(label),
		})
		s.capBound = append(s.capBound, s.capChg.With(label))
	}
	for _, w := range rt.Workers() {
		name, kind := w.Info.Name, w.Info.Kind.String()
		s.wkBound = append(s.wkBound, workerGauges{
			queue:    s.wQueue.With(name, kind),
			inflight: s.wFlight.With(name, kind),
			busy:     s.wBusy.With(name, kind),
			tasks:    s.wTasks.With(name, kind),
		})
	}
	s.ticksBound = s.ticks.With()
	s.timeBound = s.simTime.With()
	// Binding a series creates it at zero, which is also what its
	// zero-valued last-sample entry claims — so the change-driven writes
	// below are correct from the very first tick.
	s.lastGPU = make([]GPUSample, len(s.handles))
	s.lastWorker = make([]WorkerSample, len(rt.Workers()))

	plat.Engine().After(s.interval, s.tick)
	return s, nil
}

// ObserveCapChange records an exact cap-change event (a dyncap
// controller move, see RunScope.ObserveCapMoves) next to the sampled
// series.
func (s *Sampler) ObserveCapChange(t units.Seconds, gpu int, old, new units.Watts) {
	if gpu >= 0 && gpu < len(s.capBound) {
		s.capBound[gpu].Inc()
	} else {
		s.capChg.With(fmt.Sprintf("%d", gpu)).Inc()
	}
	s.mu.Lock()
	s.capEvents = append(s.capEvents, CapEvent{
		T: float64(t), GPU: gpu, OldW: float64(old), NewW: float64(new),
	})
	s.mu.Unlock()
}

// tick takes one sample and reschedules unless the run is over.
func (s *Sampler) tick() {
	s.sample()
	if s.done() {
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		return
	}
	s.plat.Engine().After(s.interval, s.tick)
}

// sample reads every GPU and worker once, updating gauges and series.
// The retained series stay dense (one point per device per tick, the
// sample-grid contract of /timeseries.json), but the live-gauge mirror
// is change-driven — per-tick gauge work is proportional to the devices
// whose state actually moved — and all appends happen under one lock
// acquisition per tick instead of one per device.
func (s *Sampler) sample() {
	now := s.plat.Engine().Now()
	s.ticksBound.Inc()
	s.timeBound.Set(float64(now))

	arch := s.plat.GPUArch
	s.mu.Lock()
	for i, h := range s.handles {
		mw, _ := h.GetPowerUsage()
		capMw, _ := h.GetPowerManagementLimit()
		mj, _ := h.GetTotalEnergyConsumption()
		power := float64(mw) / 1000
		capW := float64(capMw) / 1000
		energy := float64(mj) / 1000
		level, code := capLevel(units.Watts(capW), arch.MinPower, arch.TDP)
		last := &s.lastGPU[i]
		b := &s.gpuBound[i]
		if power != last.PowerW {
			b.power.Set(power)
		}
		if capW != last.CapW {
			b.cap.Set(capW)
			b.level.Set(code)
		}
		if energy != last.EnergyJ {
			b.energy.Set(energy)
		}
		sm := GPUSample{T: float64(now), PowerW: power, CapW: capW, Level: level, EnergyJ: energy}
		*last = sm
		if len(s.gpuSeries[i]) < s.maxSamp {
			s.gpuSeries[i] = append(s.gpuSeries[i], sm)
		}
	}

	dt := now - s.lastT
	for i, w := range s.rt.Workers() {
		queue := s.rt.QueueDepth(i)
		busy := w.BusyTime()
		frac := 0.0
		if dt > 0 {
			frac = float64(busy-s.lastBusy[i]) / float64(dt)
			frac = units.Clamp(frac, 0, 1)
		}
		s.lastBusy[i] = busy
		sm := WorkerSample{
			T: float64(now), Queue: queue, Inflight: w.Inflight(),
			BusyFrac: frac, Tasks: w.TasksRun(),
		}
		last := &s.lastWorker[i]
		b := &s.wkBound[i]
		if sm.Queue != last.Queue {
			b.queue.Set(float64(sm.Queue))
		}
		if sm.Inflight != last.Inflight {
			b.inflight.Set(float64(sm.Inflight))
		}
		if sm.BusyFrac != last.BusyFrac {
			b.busy.Set(sm.BusyFrac)
		}
		if sm.Tasks != last.Tasks {
			b.tasks.Set(float64(sm.Tasks))
		}
		*last = sm
		if len(s.wkSeries[i]) < s.maxSamp {
			s.wkSeries[i] = append(s.wkSeries[i], sm)
		}
	}
	s.mu.Unlock()
	s.lastT = now
}

// capLevel maps a cap wattage onto the paper's L/B/H notation.
func capLevel(cap, min, tdp units.Watts) (string, float64) {
	switch {
	case cap <= min:
		return "L", 0
	case cap >= tdp:
		return "H", 2
	default:
		return "B", 1
	}
}

// GPUSeries reports GPU i's recorded samples.
func (s *Sampler) GPUSeries(i int) []GPUSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]GPUSample(nil), s.gpuSeries[i]...)
}

// WorkerSeries reports worker i's recorded samples.
func (s *Sampler) WorkerSeries(i int) []WorkerSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WorkerSample(nil), s.wkSeries[i]...)
}

// CapEvents reports the exact cap changes observed.
func (s *Sampler) CapEvents() []CapEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CapEvent(nil), s.capEvents...)
}

// Stopped reports whether the sampler has taken its final sample.
func (s *Sampler) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// gpuSeriesExport / workerSeriesExport / timeSeriesExport shape the
// /timeseries.json document.
type gpuSeriesExport struct {
	GPU     int         `json:"gpu"`
	Samples []GPUSample `json:"samples"`
}

type workerSeriesExport struct {
	Worker  int            `json:"worker"`
	Name    string         `json:"name"`
	Kind    string         `json:"kind"`
	Samples []WorkerSample `json:"samples"`
}

type timeSeriesExport struct {
	IntervalS float64              `json:"interval_s"`
	GPUs      []gpuSeriesExport    `json:"gpus"`
	Workers   []workerSeriesExport `json:"workers"`
	CapEvents []CapEvent           `json:"cap_events"`
}

// WriteTimeSeriesJSON renders every recorded series as one JSON
// document (the /timeseries.json payload).
func (s *Sampler) WriteTimeSeriesJSON(w io.Writer) error {
	doc := timeSeriesExport{IntervalS: float64(s.interval), CapEvents: s.CapEvents()}
	if doc.CapEvents == nil {
		doc.CapEvents = []CapEvent{}
	}
	s.mu.Lock()
	for i := range s.gpuSeries {
		doc.GPUs = append(doc.GPUs, gpuSeriesExport{GPU: i, Samples: append([]GPUSample(nil), s.gpuSeries[i]...)})
	}
	for i := range s.wkSeries {
		info := s.rt.Workers()[i].Info
		doc.Workers = append(doc.Workers, workerSeriesExport{
			Worker: i, Name: info.Name, Kind: info.Kind.String(),
			Samples: append([]WorkerSample(nil), s.wkSeries[i]...),
		})
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SummaryTable folds the GPU series into a per-device digest: mean and
// peak sampled power, final cap and energy, and observed cap changes.
func (s *Sampler) SummaryTable() *report.Table {
	tbl := report.NewTable("Telemetry — per-GPU power/energy (sampled)",
		"gpu", "samples", "mean_W", "peak_W", "final cap", "level", "energy_J", "cap changes")
	s.mu.Lock()
	defer s.mu.Unlock()
	changes := make(map[int]int)
	for _, e := range s.capEvents {
		changes[e.GPU]++
	}
	for i, series := range s.gpuSeries {
		if len(series) == 0 {
			tbl.AddRow(fmt.Sprintf("GPU%d", i), 0, 0.0, 0.0, "-", "-", 0.0, changes[i])
			continue
		}
		var sum, peak float64
		for _, sm := range series {
			sum += sm.PowerW
			if sm.PowerW > peak {
				peak = sm.PowerW
			}
		}
		last := series[len(series)-1]
		tbl.AddRow(fmt.Sprintf("GPU%d", i), len(series), sum/float64(len(series)), peak,
			fmt.Sprintf("%.0fW", last.CapW), last.Level, last.EnergyJ, changes[i])
	}
	return tbl
}
