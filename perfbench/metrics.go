package main

import (
	"fmt"
	"time"
)

// endToEndNames and perLayerNames are the metrics a run reports with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var endToEndNames = []string{"setup_s", "cells_per_cpu_s", "job_cpu_s_p50", "allocs_per_cell", "peak_rss_mb"}

var perLayerNames = []string{
	"chameleon.dag_build_ms", "chameleon.tasks_per_cell",
	"starpu.calibration_ms", "starpu.measured_ms", "starpu.tasks_per_ms", "starpu.measured_allocs", "platform.setup_us",
	"spantrace.finalize_ms", "spantrace.analyze_ms", "faults.task_retries_per_cell", "faults.evictions_per_cell",
	"core.encode_us", "core.decode_us", "core.result_kb", "core.rollup_us", "benchcheck.digest_us",
	"ckpt.commit_us", "ckpt.resume_open_ms", "ckpt.restore_us",
	"agg.observe_us", "agg.artifacts_ms",
	"sweepd.lease_rtt_ms_p50", "sweepd.lease_rtt_ms_p99", "sweepd.result_rtt_ms_p50", "sweepd.result_rtt_ms_p99",
	"sweepd.wait_replies_per_job", "sweepd.queue_wait_ms", "sweepd.finish_ms", "sweepd.dispatch_ms_per_cell",
	"obs.events_per_cell", "obs.dropped",
	"runtime.gc_cycles_per_job", "runtime.gc_pause_ms_per_job", "runtime.bytes_per_cell",
	"trace.overhead_pct", "wall.job_s_p50", "host.steal_pct",
}

// meanOf is the mean of durations in the given unit.
func meanOf(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return float64(t) / float64(unit) / float64(len(ds))
}

func meanF(xs []float64) float64 { return perUnit(sum(xs), len(xs)) }

// perLayer fills the per-layer metrics from the traced run.  Per-cell and
// per-call figures are means over every replayed cell or call, so a
// workload's mix of cell kinds weighs in as it does in a job; the
// round-trip times are percentiles.
func (w *work) perLayer(out *result) {
	ls, sv, rs := &w.layers, &w.svc, &w.rt
	m := out.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("chameleon.dag_build_ms", meanOf(ls.dagBuild, time.Millisecond), "ms")
	set("chameleon.tasks_per_cell", meanF(ls.tasks), "count")
	set("starpu.calibration_ms", meanOf(ls.calibration, time.Millisecond), "ms")
	set("starpu.measured_ms", meanOf(ls.measured, time.Millisecond), "ms")
	var measured time.Duration
	for _, d := range ls.measured {
		measured += d
	}
	set("starpu.tasks_per_ms", sum(ls.tasks)/ms(measured), "1/ms")
	set("starpu.measured_allocs", meanF(ls.measuredAllocs), "allocs")
	set("platform.setup_us", meanOf(ls.platformSetup, time.Microsecond), "us")

	set("spantrace.finalize_ms", meanOf(ls.finalize, time.Millisecond), "ms")
	set("spantrace.analyze_ms", meanOf(ls.analyze, time.Millisecond), "ms")
	set("faults.task_retries_per_cell", meanF(ls.taskRetries), "count")
	set("faults.evictions_per_cell", meanF(ls.evictions), "count")

	set("core.encode_us", meanOf(ls.encode, time.Microsecond), "us")
	set("core.decode_us", meanOf(ls.decode, time.Microsecond), "us")
	set("core.result_kb", meanF(ls.resultBytes)/1024, "KB")
	set("core.rollup_us", meanOf(ls.rollup, time.Microsecond), "us")
	set("benchcheck.digest_us", meanOf(ls.digest, time.Microsecond), "us")

	set("ckpt.commit_us", meanOf(ls.commit, time.Microsecond), "us")
	set("ckpt.resume_open_ms", meanOf(ls.resumeOpen, time.Millisecond), "ms")
	set("ckpt.restore_us", meanOf(ls.restore, time.Microsecond), "us")
	set("agg.observe_us", meanOf(ls.observe, time.Microsecond), "us")
	set("agg.artifacts_ms", meanOf(ls.artifacts, time.Millisecond), "ms")

	set("sweepd.lease_rtt_ms_p50", quantile(sv.leaseRTT, 0.5), "ms")
	set("sweepd.lease_rtt_ms_p99", quantile(sv.leaseRTT, 0.99), "ms")
	set("sweepd.result_rtt_ms_p50", quantile(sv.resultRTT, 0.5), "ms")
	set("sweepd.result_rtt_ms_p99", quantile(sv.resultRTT, 0.99), "ms")
	set("sweepd.wait_replies_per_job", meanF(sv.waitReplies), "count")
	set("sweepd.queue_wait_ms", median(sv.queueWait), "ms")
	set("sweepd.finish_ms", median(sv.finish), "ms")
	set("sweepd.dispatch_ms_per_cell", median(sv.dispatchPerCell), "ms")

	set("obs.events_per_cell", perUnit(float64(rs.events), rs.cells), "count")
	set("obs.dropped", float64(rs.dropped), "count")
	set("runtime.gc_cycles_per_job", perUnit(float64(rs.gcCycles), rs.jobs), "count")
	set("runtime.gc_pause_ms_per_job", perUnit(ms(rs.gcPause), rs.jobs), "ms")
	set("runtime.bytes_per_cell", perUnit(float64(rs.bytes), rs.cells), "bytes")
	// Tracing's cost: the instrumented half's median job CPU time against
	// the plain half's.  The wall-clock job time and the steal share are
	// here for the reader; the end-to-end metrics use CPU time.
	var instrumented []jobRecord
	for _, j := range w.jobs {
		if j.instrumented && !j.probe {
			instrumented = append(instrumented, j)
		}
	}
	plain := w.plainJobs()
	cpu := func(j jobRecord) time.Duration { return j.cpu }
	set("trace.overhead_pct", 100*(median(seconds(instrumented, cpu))/median(seconds(plain, cpu))-1), "%")
	set("wall.job_s_p50", median(seconds(plain, func(j jobRecord) time.Duration { return j.wall })), "s")
	set("host.steal_pct", w.stealPct, "%")

	fmt.Printf("replayed %d cells, %d disagreed with core.Run; %d lease and %d result round trips\n",
		ls.replayed, ls.mismatched, len(sv.leaseRTT), len(sv.resultRTT))
	for _, k := range perLayerNames {
		fmt.Printf("  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
