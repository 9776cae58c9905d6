package benchcheck

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prec"
)

// fig4Rows is the reduced Fig. 4 grid the hot-path trajectory is
// measured on: every single-precision Table II row at the same
// reduction the top-level Fig. 4 benchmarks use (GEMM at full order,
// POTRF at half order, tile sizes untouched).  At these sizes a cell
// pushes hundreds to thousands of tasks through eventsim and dmdas, so
// the measurement is dominated by the hot path, not per-cell setup.
func fig4Rows(tb testing.TB) []core.TableIIRow {
	var rows []core.TableIIRow
	for _, r := range core.TableII {
		if r.Precision != prec.Single {
			continue
		}
		scale := 1
		if r.Op == core.POTRF {
			scale = 2
		}
		nt := r.N / r.NB / scale
		if nt < 4 {
			nt = 4
		}
		r.N = nt * r.NB
		rows = append(rows, r)
	}
	if len(rows) != 6 {
		tb.Fatalf("expected 6 single-precision Table II rows, got %d", len(rows))
	}
	return rows
}

// BenchmarkHotpathCells is the speed side of the optimization gate: it
// sweeps the reduced Fig. 4 grid serially (Workers: 1, so the number is
// the single-cell hot path, not the executor's parallelism) and prints
// a machine-readable "BENCH_HOTPATH {...}" line with cells/sec (wall
// clock and process CPU time), ns/cell, allocs/cell and bytes/cell.  `make bench-json` appends the
// line (plus git SHA and date) to BENCH_hotpath.json; scripts/
// bench_gate.sh compares a fresh measurement against the committed
// trajectory and fails CI on regression.
//
// Allocation counts are measured over the whole sweep with
// runtime.ReadMemStats rather than b.ReportAllocs so they land in the
// same JSON line as the timing; the sweep is serial, so the delta is
// exact up to background runtime noise.
//
// The sweep runs with the observability plane enabled — a live event
// bus with a draining subscriber, as capbench attaches when -metrics-addr
// is set — so the trajectory prices in the event seams.  The
// "obs-plane" entry in BENCH_hotpath.json marks where it turned on.
func BenchmarkHotpathCells(b *testing.B) {
	rows := fig4Rows(b)
	opt := core.SweepOptions{Seed: 1}

	bus := obs.NewBus()
	sub := bus.Subscribe(4096)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			sub.Drain()
			select {
			case <-stop:
				return
			case <-sub.Wait():
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
		sub.Close()
	}()

	var elapsed, cpu time.Duration
	var mallocs, bytes uint64
	cells := 0
	for i := 0; i < b.N; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuTime()
		res, err := core.ParallelSweep(rows, opt, core.ParallelOptions{Workers: 1, Events: bus})
		if err != nil {
			b.Fatal(err)
		}
		elapsed, cpu = time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		bytes = m1.TotalAlloc - m0.TotalAlloc
		cells = 0
		for _, row := range res {
			cells += len(row)
		}
	}

	cellsPerSec := float64(cells) / elapsed.Seconds()
	var cpuCellsPerSec float64
	if cpu > 0 {
		cpuCellsPerSec = float64(cells) / cpu.Seconds()
	}
	nsPerCell := float64(elapsed.Nanoseconds()) / float64(cells)
	allocsPerCell := float64(mallocs) / float64(cells)
	bytesPerCell := float64(bytes) / float64(cells)
	b.ReportMetric(cellsPerSec, "cells/s")
	b.ReportMetric(allocsPerCell, "allocs/cell")
	fmt.Printf("BENCH_HOTPATH {\"name\":\"hotpath_fig4_reduced\",\"cells\":%d,\"gomaxprocs\":%d,\"cells_per_sec\":%.2f,\"cpu_cells_per_sec\":%.2f,\"ns_per_cell\":%.0f,\"allocs_per_cell\":%.0f,\"bytes_per_cell\":%.0f}\n",
		cells, runtime.GOMAXPROCS(0), cellsPerSec, cpuCellsPerSec, nsPerCell, allocsPerCell, bytesPerCell)
}

// cpuTime reports the process's CPU time, user plus system over every
// thread.  Unlike wall clock it leaves out the time a shared host gives
// to other tenants, which made wall-clock cells/sec of one binary vary
// by more than the gate's tolerance within minutes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
