// Package trace post-processes an executed task DAG into scheduling
// statistics: per-worker utilisation, task distribution by worker kind
// and codelet, and a Gantt CSV export — the observability StarPU's FxT
// traces provide around the paper's experiments.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/eventsim"
	"repro/internal/starpu"
	"repro/internal/units"
)

// WorkerStat summarises one worker's activity.
type WorkerStat struct {
	// Name and Kind identify the worker.
	Name string
	Kind starpu.WorkerKind
	// Tasks is the number of tasks executed.
	Tasks int
	// Busy is the cumulated compute time; Transfer the cumulated
	// data-wait time.
	Busy, Transfer units.Seconds
	// Utilisation is Busy divided by the makespan.
	Utilisation float64
}

// Stats is the digest of one run.
type Stats struct {
	// Makespan is the span from first task start to last task end.
	Makespan units.Seconds
	// TotalTasks counts executed tasks.
	TotalTasks int
	// Workers lists per-worker activity, runtime order.
	Workers []WorkerStat
	// ByKind counts tasks per worker kind.
	ByKind map[starpu.WorkerKind]int
	// ByCodelet counts tasks per codelet name.
	ByCodelet map[string]int
	// GPUShare is the fraction of tasks that ran on CUDA workers.
	GPUShare float64
	// TransferBytes is the total data moved.
	TransferBytes units.Bytes
}

// Collect digests a finished runtime.
func Collect(rt *starpu.Runtime) *Stats {
	tasks := rt.Tasks()
	s := &Stats{}
	// The task loop counts into dense slices: kinds (CPU, CUDA) by
	// value, codelets (a handful of per-kernel singletons) by pointer;
	// the maps are built once at the end.
	var byKind [2]int
	type codeletCount struct {
		c *starpu.Codelet
		n int
	}
	var countsBacking [8]codeletCount
	counts := countsBacking[:0]
	var start, end units.Seconds
	first := true
	for _, t := range tasks {
		if t.WorkerID < 0 {
			continue
		}
		s.TotalTasks++
		byKind[rt.Workers()[t.WorkerID].Info.Kind]++
		k := 0
		for k < len(counts) && counts[k].c != t.Codelet {
			k++
		}
		if k == len(counts) {
			counts = append(counts, codeletCount{c: t.Codelet})
		}
		counts[k].n++
		s.TransferBytes += t.TransferBytes
		if first || t.StartT < start {
			start = t.StartT
		}
		if first || t.EndT > end {
			end = t.EndT
		}
		first = false
	}
	s.Makespan = end - start
	s.ByKind = make(map[starpu.WorkerKind]int, len(byKind))
	for k, n := range byKind {
		if n > 0 {
			s.ByKind[starpu.WorkerKind(k)] = n
		}
	}
	s.ByCodelet = make(map[string]int, len(counts))
	for _, c := range counts {
		s.ByCodelet[c.c.Name] += c.n
	}
	if s.TotalTasks > 0 {
		s.GPUShare = float64(s.ByKind[starpu.CUDAWorker]) / float64(s.TotalTasks)
	}
	// Results outlive their cell (sweeps keep them for rollups and
	// digests), so the slice is sized exactly rather than grown.
	s.Workers = make([]WorkerStat, 0, len(rt.Workers()))
	for _, w := range rt.Workers() {
		ws := WorkerStat{
			Name:     w.Info.Name,
			Kind:     w.Info.Kind,
			Tasks:    w.TasksRun(),
			Busy:     w.BusyTime(),
			Transfer: w.TransferTime(),
		}
		if s.Makespan > 0 {
			ws.Utilisation = float64(ws.Busy) / float64(s.Makespan)
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// String renders a compact human-readable digest.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %v, %d tasks (%.0f%% on GPUs), %v transferred\n",
		s.Makespan, s.TotalTasks, s.GPUShare*100, s.TransferBytes)
	names := make([]string, 0, len(s.ByCodelet))
	for n := range s.ByCodelet {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-8s x%d\n", n, s.ByCodelet[n])
	}
	for _, w := range s.Workers {
		if w.Tasks == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %5d tasks, busy %v (%.0f%%)\n", w.Name, w.Tasks, w.Busy, w.Utilisation*100)
	}
	return b.String()
}

// WriteGantt emits one CSV row per task: worker, codelet, tag, start,
// end, priority — loadable into any plotting tool.
func WriteGantt(w io.Writer, rt *starpu.Runtime) error {
	if _, err := fmt.Fprintln(w, "worker,kind,codelet,tag,start_s,end_s,priority"); err != nil {
		return err
	}
	tasks := append([]*starpu.Task(nil), rt.Tasks()...)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].StartT < tasks[j].StartT })
	for _, t := range tasks {
		if t.WorkerID < 0 {
			continue
		}
		info := rt.Workers()[t.WorkerID].Info
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%.6f,%.6f,%d\n",
			info.Name, info.Kind, t.Codelet.Name, t.Tag, float64(t.StartT), float64(t.EndT), t.Priority); err != nil {
			return err
		}
	}
	return nil
}

// WritePowerTrace emits one CSV row per power step: device, time,
// watts — a wattmeter-style timeline for plotting.
func WritePowerTrace(w io.Writer, traces map[string][]eventsim.PowerSample) error {
	if _, err := fmt.Fprintln(w, "device,time_s,power_W"); err != nil {
		return err
	}
	devices := make([]string, 0, len(traces))
	for d := range traces {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, d := range devices {
		for _, s := range traces[d] {
			if _, err := fmt.Fprintf(w, "%s,%.6f,%.2f\n", d, float64(s.T), float64(s.Power)); err != nil {
				return err
			}
		}
	}
	return nil
}

// IdleFraction reports 1 - (aggregate busy time / (workers * makespan)),
// the fleet-level idleness the paper's scheduling discussion cares
// about.  Workers that never ran a task still count capacity.
func (s *Stats) IdleFraction() float64 {
	if s.Makespan <= 0 || len(s.Workers) == 0 {
		return 0
	}
	var busy float64
	for _, w := range s.Workers {
		busy += float64(w.Busy)
	}
	cap := float64(s.Makespan) * float64(len(s.Workers))
	return 1 - busy/cap
}
