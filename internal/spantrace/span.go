// Package spantrace is the causal task tracer: one span per executed
// task (worker, power state, queue/start/end times), causal edges from
// the DAG dependencies, and per-span energy attribution that sums back
// to the device meters the paper's Fig. 5 reports.
//
// The telemetry layer answers "how much energy did GPU1 burn under
// HHBB"; spantrace answers "which tasks burned it and why the makespan
// grew": the analyzer computes the dependency-aware critical path with
// its per-power-state composition, per-worker idle breakdowns and the
// top energy-consuming task types, and the exporters render Chrome
// traces with flow arrows for the causal edges plus folded stacks for
// energy flamegraphs.
//
// Attribution model: while a task runs, the platform raises its meters
// by an exact marginal wattage (accelerator operating power above idle,
// plus one busy host core).  The tracer records that wattage at task
// start, so a span's dynamic energy is power x duration with no
// sampling error, and per device
//
//	measured = idle_baseline x window + sum(span dynamic energy)
//
// holds to counter rounding (the property tests assert 0.1 %).  Runs
// that move caps mid-task (the dyncap controller) can shift a small
// residual between a GPU and its host socket; static-plan sweeps — the
// paper's protocol — are exact.
package spantrace

import (
	"repro/internal/units"
)

// Span is one executed task.
type Span struct {
	// Task is the task's DAG ID (submission order).
	Task int
	// Tag and Codelet identify the kernel instance ("gemm(2,3,1)").
	Tag     string
	Codelet string
	// Worker placement: runtime index, name and kind ("cpu"/"cuda").
	Worker     int
	WorkerName string
	Kind       string
	// GPU is the device index for CUDA workers, -1 otherwise; Package is
	// the CPU socket hosting the (pinned) core.
	GPU     int
	Package int
	// Level is the owning GPU's power state at span start — "L", "B" or
	// "H" — or "cpu" for CPU workers.
	Level string
	// Reason is the scheduler's placement cause ("min-completion-time").
	Reason string
	// Lifecycle timestamps (virtual seconds): submission, dependency
	// release, compute start (transfers done) and completion.
	SubmitT, ReadyT, StartT, EndT units.Seconds
	// TransferBytes is the data staged for this task.
	TransferBytes units.Bytes
	// AccelPowerW is the accelerator's marginal draw above idle during
	// the span (0 for CPU workers); HostPowerW is the busy host core.
	AccelPowerW units.Watts
	HostPowerW  units.Watts
	// Aborted marks an attempt killed by fault injection or worker
	// eviction: EndT is the abort instant, the attributed energy is real
	// (the meters integrated it), but no useful work completed — a later
	// span under the same Task is the retry that did.
	Aborted bool
}

// Duration reports the span's compute time.
func (s *Span) Duration() units.Seconds { return s.EndT - s.StartT }

// QueueWait reports how long the task sat between dependency release
// and compute start (scheduling plus data staging).
func (s *Span) QueueWait() units.Seconds { return s.StartT - s.ReadyT }

// AccelEnergy reports the accelerator-side dynamic energy.
func (s *Span) AccelEnergy() units.Joules { return units.Energy(s.AccelPowerW, s.Duration()) }

// HostEnergy reports the host-core dynamic energy.
func (s *Span) HostEnergy() units.Joules { return units.Energy(s.HostPowerW, s.Duration()) }

// Energy reports the span's total attributed dynamic energy.
func (s *Span) Energy() units.Joules { return s.AccelEnergy() + s.HostEnergy() }

// Edge is one causal dependency: task To waited on task From.
type Edge struct {
	From, To int
}

// WorkerMeta names one runtime worker row of the trace.
type WorkerMeta struct {
	ID   int
	Name string
	Kind string
}

// DeviceEnergy reconciles one device's measured energy with the span
// attribution over the trace window.
type DeviceEnergy struct {
	// Device is the meter name ("GPU0", "CPU1").
	Device string
	// MeasuredJ is the bracketed counter read (NVML / RAPL).
	MeasuredJ units.Joules
	// SpanJ is the summed per-span dynamic energy landing on this device.
	SpanJ units.Joules
	// StaticJ is the idle/static residual: baseline draw x window.
	StaticJ units.Joules
}

// AttributedJ reports the model-side total (spans + static).
func (d DeviceEnergy) AttributedJ() units.Joules { return d.SpanJ + d.StaticJ }

// RelError reports |measured - attributed| / measured (0 when nothing
// was measured).
func (d DeviceEnergy) RelError() float64 {
	if d.MeasuredJ == 0 {
		return 0
	}
	rel := float64(d.MeasuredJ-d.AttributedJ()) / float64(d.MeasuredJ)
	if rel < 0 {
		rel = -rel
	}
	return rel
}

// Trace is one run's complete span record.
type Trace struct {
	// T0 and T1 bracket the measured window on the virtual clock.
	T0, T1 units.Seconds
	// Workers lists the runtime's worker rows.
	Workers []WorkerMeta
	// Spans holds one entry per executed task, in task-ID order.
	Spans []Span
	// Edges lists every causal dependency, ordered by (To, From).
	Edges []Edge
	// Devices reconciles per-device energy, sorted by device name.
	Devices []DeviceEnergy
}

// Window reports the trace window's length.
func (tr *Trace) Window() units.Seconds { return tr.T1 - tr.T0 }

// MaxDeviceRelError reports the worst per-device attribution error —
// the quantity the 0.1 % acceptance bound is asserted on.
func (tr *Trace) MaxDeviceRelError() float64 {
	worst := 0.0
	for _, d := range tr.Devices {
		if e := d.RelError(); e > worst {
			worst = e
		}
	}
	return worst
}
