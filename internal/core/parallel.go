// Parallel experiment execution.  The paper's evaluation is a grid of
// independent runs — power cap × matrix size × precision × platform ×
// schedule — and every cell builds its own platform, runtime and
// performance-model state, so cells can fan out across goroutines
// without sharing any simulation state.  The executor here is the
// repo's one concurrency boundary for experiments; everything below it
// (eventsim, starpu, platform) stays single-threaded per cell by
// design.
//
// Determinism contract: output is byte-identical regardless of worker
// count.  Three rules enforce it:
//
//  1. Each cell's seed is a pure function of the root seed and the
//     cell's identity (CellSeed), never of scheduling order.
//  2. No simulation state is shared between cells: platform.New,
//     starpu.New and perfmodel.NewHistory run per cell.  The only
//     cross-cell shared objects (gpu/cpu architecture tables, chameleon
//     codelets) are sync.Once-built and read-only afterwards.
//  3. Results land in a slice indexed by cell position, and aggregation
//     (baseline reuse, delta computation, report rendering) happens
//     after the pool drains, in cell order.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/telemetry/agg"
)

// ParallelOptions tunes the worker-pool executor.
type ParallelOptions struct {
	// Workers bounds the number of concurrent cells; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Context cancels the pool early; nil means context.Background().
	Context context.Context
	// OnProgress, when set, is called after every finished cell with the
	// number done and the total.  It may be called from multiple
	// goroutines; keep it cheap and thread-safe.
	OnProgress func(done, total int)
	// Checkpoint, when set, journals every completed cell and skips
	// cells the journal already holds, making the sweep resumable after
	// a crash or interrupt.  Restored results are byte-identical to
	// re-running the cell (see checkpoint.go), so resumed sweeps render
	// the same reports and artifacts as uninterrupted ones.
	Checkpoint *ckpt.Journal
	// CellTimeout arms the per-cell watchdog: a cell that completes no
	// task for this much wall-clock time is abandoned and reported hung
	// instead of stalling the pool.  <= 0 disables the watchdog.
	CellTimeout time.Duration
	// Rollups, when set, receives every completed cell's rollup — fresh
	// runs and checkpoint-restored cells alike, so a resumed sweep
	// rebuilds the same efficiency surface an uninterrupted one streams.
	// The observer is called from pool goroutines and must be
	// thread-safe (*agg.Aggregator is).
	Rollups RollupObserver
	// Events, when set, receives the sweep's structured observability
	// events: one SweepStarted with the cell totals; from the pool,
	// per-cell lifecycle events (started/finished/resumed/hung/panicked)
	// and, with a Checkpoint, one CheckpointCommitted per durable journal
	// record; from inside each cell, deep-seam events (cap exhaustion,
	// breaker trips, evictions, degraded runs) — the bus is injected into
	// every cell Config whose own Events field is nil.
	// Publishing never blocks and events never feed back into the
	// simulation, so results are byte-identical with or without a bus.
	Events *obs.Bus
	// SoftTimeout arms a per-cell stall threshold below the watchdog's
	// hard CellTimeout: the first time a cell completes no task for this
	// much wall-clock time, OnCellStall fires (once per cell) while the
	// cell is still running.  <= 0 disables it.
	SoftTimeout time.Duration
	// OnCellStall is called (from watchdog goroutines; must be
	// thread-safe) when a cell crosses SoftTimeout — the seam on-demand
	// CPU profiling hangs from.
	OnCellStall func(cell string, idle time.Duration)
}

// RollupObserver receives completed-cell rollups; *agg.Aggregator
// satisfies it.
type RollupObserver interface {
	ObserveCell(agg.CellRollup)
}

func (o ParallelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o ParallelOptions) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// CellSeed derives a per-cell seed from a root seed and the cell's
// stable identity string.  FNV-1a over (root, key) keeps the derivation
// deterministic, order-free and well spread, so the same cell always
// simulates identically no matter which worker picks it up, how many
// workers run, or which other cells share the grid.
func CellSeed(root int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(root) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	// Mask the sign bit: seeds stay non-negative, which keeps them
	// readable in logs and stable under int64 round-trips.
	return int64(h.Sum64() &^ (1 << 63))
}

// commitCell journals r and, once it is durable, publishes it on bus
// (when set) as a CheckpointCommitted event.
func commitCell(j *ckpt.Journal, bus *obs.Bus, r ckpt.Record) error {
	err := j.Commit(r)
	if err == nil && bus != nil {
		bus.Publish(obs.Event{Type: obs.CheckpointCommitted, Cell: r.Key, Status: string(r.Status)})
	}
	return err
}

// RunCells executes independent configurations across a bounded worker
// pool and returns their results in input order.  The first plain error
// cancels the remaining cells and is returned (wrapped with the cell
// index); cells already in flight run to completion but their results
// are discarded alongside the error.
//
// Two failure classes are deliberately softer: a panicking cell is
// recovered (CellPanicError, with the captured stack) and a cell the
// watchdog declares hung is abandoned (CellHungError) — in both cases
// the pool keeps draining the remaining cells and the accumulated
// failures come back joined in one error after the sweep.  With a
// Checkpoint journal attached, every finished cell commits before the
// error returns, so a resume re-runs only the broken cells.
func RunCells(cfgs []Config, opt ParallelOptions) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	ctx, cancel := context.WithCancel(opt.context())
	defer cancel()

	bus := opt.Events
	if bus != nil {
		totals := make(map[string]int)
		for i := range cfgs {
			totals[cfgs[i].PlanLabel()]++
		}
		bus.Publish(obs.Event{Type: obs.SweepStarted, Total: len(cfgs), PlanTotals: totals})
	}

	workers := opt.workers()
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var soft []error

	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	addSoft := func(err error) {
		errMu.Lock()
		soft = append(soft, err)
		errMu.Unlock()
	}
	progress := func() {
		n := done.Add(1)
		if opt.OnProgress != nil {
			opt.OnProgress(int(n), len(cfgs))
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				cfg := cfgs[i]
				// One key per cell labels its events and stall reports
				// and, when the cell is journalled, keys its records.
				journalled := opt.Checkpoint != nil && cfg.checkpointable()
				var ident, key string
				if bus != nil || opt.OnCellStall != nil || journalled {
					ident = cfg.CheckpointKey()
				}
				if bus != nil && cfg.Events == nil {
					cfg.Events = bus
				}
				if journalled {
					key = ident
					if res, ok := restoreCell(opt.Checkpoint, key); ok {
						results[i] = res
						if bus != nil {
							bus.Publish(obs.Event{Type: obs.CellResumed, Cell: ident,
								Plan: cfg.PlanLabel(), Workload: cfg.Workload.String(),
								SimTime: float64(res.Makespan), Efficiency: res.Efficiency})
						}
						if cfg.Telemetry != nil {
							cfg.Telemetry.ObserveCellResumed()
						}
						if opt.Rollups != nil {
							// The restored Result is byte-identical to re-running
							// the cell, so its rollup is too: the surface survives
							// the crash with no journal-side aggregation state.
							opt.Rollups.ObserveCell(BuildRollup(cfg, res))
						}
						progress()
						continue
					}
					// The running record makes the in-flight set visible in a
					// post-crash journal; a checkpoint that cannot record is
					// worse than none, so commit failures are fatal.
					if err := commitCell(opt.Checkpoint, bus, ckpt.Record{Key: key, Status: ckpt.StatusRunning}); err != nil {
						fail(fmt.Errorf("core: cell %d: checkpoint: %w", i, err))
						continue
					}
				}
				var stall func(time.Duration)
				if opt.OnCellStall != nil {
					cell := ident
					stall = func(idle time.Duration) { opt.OnCellStall(cell, idle) }
				}
				if bus != nil {
					bus.Publish(obs.Event{Type: obs.CellStarted, Cell: ident,
						Plan: cfg.PlanLabel(), Workload: cfg.Workload.String()})
				}
				res, err := runGuarded(cfg, opt.CellTimeout, opt.SoftTimeout, stall)
				if err != nil {
					cellErr := fmt.Errorf("core: cell %d (%s plan %s): %w", i, cfg.Workload, cfg.Plan, err)
					status := ckpt.StatusFailed
					var panicErr *CellPanicError
					var hungErr *CellHungError
					switch {
					case errors.As(err, &panicErr):
						status = ckpt.StatusPanicked
						if bus != nil {
							bus.Publish(obs.Event{Type: obs.CellPanicked, Cell: ident,
								Plan: cfg.PlanLabel(), Detail: eventDetail(err)})
						}
						if cfg.Telemetry != nil {
							cfg.Telemetry.ObserveCellPanic()
						}
						addSoft(cellErr)
					case errors.As(err, &hungErr):
						status = ckpt.StatusHung
						if bus != nil {
							bus.Publish(obs.Event{Type: obs.CellHung, Cell: ident,
								Plan: cfg.PlanLabel(), Detail: eventDetail(err)})
						}
						if cfg.Telemetry != nil {
							cfg.Telemetry.ObserveCellHung()
						}
						addSoft(cellErr)
					default:
						fail(cellErr)
					}
					if key != "" {
						// Best-effort: the failure itself is already reported.
						commitCell(opt.Checkpoint, bus, ckpt.Record{Key: key, Status: status, Error: err.Error()})
					}
					continue
				}
				if key != "" {
					payload, perr := encodeResult(res)
					if perr == nil {
						perr = commitCell(opt.Checkpoint, bus, ckpt.Record{Key: key, Status: ckpt.StatusDone, Payload: payload})
					}
					if perr != nil {
						fail(fmt.Errorf("core: cell %d: checkpoint: %w", i, perr))
						continue
					}
				}
				results[i] = res
				if bus != nil {
					bus.Publish(obs.Event{Type: obs.CellFinished, Cell: ident,
						Plan: cfg.PlanLabel(), Workload: cfg.Workload.String(),
						SimTime: float64(res.Makespan), Efficiency: res.Efficiency})
				}
				if opt.Rollups != nil {
					opt.Rollups.ObserveCell(BuildRollup(cfg, res))
				}
				progress()
			}
		}()
	}

feed:
	for i := range cfgs {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	errMu.Lock()
	err := firstErr
	nsoft := len(soft)
	softErr := errors.Join(soft...)
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if ctxErr := opt.context().Err(); ctxErr != nil {
		return nil, fmt.Errorf("core: sweep cancelled: %w", ctxErr)
	}
	if softErr != nil {
		return nil, fmt.Errorf("core: %d cell(s) failed while the pool kept draining: %w", nsoft, softErr)
	}
	return results, nil
}

// PlanLabel renders a cell's plan for event labels ("H*" when the
// Config leaves it to default).
func (c Config) PlanLabel() string {
	if c.Plan != nil {
		return c.Plan.String()
	}
	return "H*"
}

// eventDetail bounds an error for event payloads: first line only,
// truncated — a panic's stack belongs in the sweep error, not in every
// subscriber's ring.
func eventDetail(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const max = 200
	if len(s) > max {
		s = s[:max]
	}
	return s
}

// restoreCell loads a completed cell from the journal; a record that
// fails to decode counts as absent (the cell re-runs).
func restoreCell(j *ckpt.Journal, key string) (*Result, bool) {
	rec, ok := j.Lookup(key)
	if !ok || rec.Status != ckpt.StatusDone {
		return nil, false
	}
	res, err := decodeResult(rec.Payload)
	if err != nil {
		return nil, false
	}
	j.MarkResumed()
	return res, true
}

// gridLayout remembers how expandCells flattened rows into cells so
// sweepCells can fold pool results back into per-row PlanResults.
type gridLayout struct {
	plansPerRow [][]powercap.Plan
	baselineAt  []int
}

// expandCells flattens per-row plan sweeps into one cell list (per row:
// the all-H baseline first, then every non-baseline plan, mirroring
// SweepPlans' serial measurement order).  opts[i] carries row i's sweep
// options, letting RunGrid seed each row independently.  The expansion
// is deterministic — a pure function of (rows, opts) — which is what
// lets the sweep service's coordinator and workers expand the same job
// independently and agree on cell indices and CheckpointKeys.
func expandCells(rows []TableIIRow, opts []SweepOptions) ([]Config, gridLayout, error) {
	var cfgs []Config
	layout := gridLayout{
		plansPerRow: make([][]powercap.Plan, len(rows)),
		baselineAt:  make([]int, len(rows)),
	}
	for i, row := range rows {
		opt := opts[i]
		spec, err := platform.SpecByName(row.Platform)
		if err != nil {
			return nil, gridLayout{}, err
		}
		plans := opt.Plans
		if plans == nil {
			plans = powercap.Enumerate(spec.GPUCount)
		}
		layout.plansPerRow[i] = plans
		base := Config{
			Spec:      spec,
			Workload:  row.Workload(),
			Plan:      powercap.MustParsePlan(repeat('H', spec.GPUCount)),
			BestFrac:  row.BestFrac,
			CPUCaps:   opt.CPUCaps,
			Scheduler: opt.Scheduler,
			Seed:      opt.Seed,
			Telemetry: opt.Telemetry,
			Trace:     opt.Trace,
			Faults:    opt.Faults,
		}
		layout.baselineAt[i] = len(cfgs)
		cfgs = append(cfgs, base)
		for _, plan := range plans {
			if plan.AllHigh() {
				continue // measured once, as the baseline
			}
			cfg := base
			cfg.Plan = plan
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, layout, nil
}

// sweepCells expands rows into cells, runs the pool, and reassembles
// per-row PlanResults in enumeration order.
func sweepCells(rows []TableIIRow, opts []SweepOptions, popt ParallelOptions) ([][]PlanResult, error) {
	cfgs, layout, err := expandCells(rows, opts)
	if err != nil {
		return nil, err
	}
	results, err := RunCells(cfgs, popt)
	if err != nil {
		return nil, err
	}

	// Aggregate in row/plan order, reusing the baseline result for all-H
	// plans exactly as the serial sweep does.
	out := make([][]PlanResult, len(rows))
	for i := range rows {
		base := results[layout.baselineAt[i]]
		next := layout.baselineAt[i] + 1
		for _, plan := range layout.plansPerRow[i] {
			var res *Result
			if plan.AllHigh() {
				res = base
			} else {
				res = results[next]
				next++
			}
			out[i] = append(out[i], PlanResult{Plan: plan, Result: res, Delta: Compare(base, res)})
		}
	}
	return out, nil
}

// ParallelSweep runs SweepPlans for every row concurrently at cell
// granularity: each (row, plan) measurement is one pool item, so even a
// single row fans out across workers.  Results keep SweepPlans' exact
// shape and order — out[i] is row i's plan results — which makes the
// output byte-identical to calling SweepPlans serially, at any worker
// count.
func ParallelSweep(rows []TableIIRow, opt SweepOptions, popt ParallelOptions) ([][]PlanResult, error) {
	return sweepCells(rows, sameOptions(opt, len(rows)), popt)
}

// sameOptions gives every one of n rows the same options.
func sameOptions(opt SweepOptions, n int) []SweepOptions {
	opts := make([]SweepOptions, n)
	for i := range opts {
		opts[i] = opt
	}
	return opts
}

// GridSpec declares a full experiment grid: the cross product of
// platform rows (cap × size × precision via Table II lookups) with the
// canonical plan set, the unit of the paper's Figs. 3/4 reproduction.
type GridSpec struct {
	// Rows lists the (platform, op, size, tiling, precision) points.
	Rows []TableIIRow
	// Sweep carries the shared options (scheduler, CPU caps, plans,
	// telemetry).  Its Seed field is ignored: RunGrid derives each row's
	// seed from RootSeed instead.
	Sweep SweepOptions
	// RootSeed is the single seed the whole grid derives from.
	RootSeed int64
}

// GridResult pairs the grid's rows with their plan results, index-aligned.
type GridResult struct {
	Rows    []TableIIRow
	Results [][]PlanResult
}

// RunGrid executes the whole grid across one worker pool with per-row
// seeds derived from the root seed: row i is seeded by
// CellSeed(RootSeed, rowKey(row)), so adding, removing or reordering
// rows never changes another row's simulation, and neither does the
// worker count.
func RunGrid(spec GridSpec, popt ParallelOptions) (*GridResult, error) {
	results, err := sweepCells(spec.Rows, spec.rowOptions(), popt)
	if err != nil {
		return nil, err
	}
	rows := make([]TableIIRow, len(spec.Rows))
	copy(rows, spec.Rows)
	return &GridResult{Rows: rows, Results: results}, nil
}

// rowOptions gives each row the shared options with its derived seed.
func (spec GridSpec) rowOptions() []SweepOptions {
	opts := make([]SweepOptions, len(spec.Rows))
	for i, row := range spec.Rows {
		o := spec.Sweep
		o.Seed = CellSeed(spec.RootSeed, rowKey(row, o))
		opts[i] = o
	}
	return opts
}

// rowKey is the stable identity CellSeed hashes for a grid row.
func rowKey(r TableIIRow, o SweepOptions) string {
	sched := o.Scheduler
	if sched == "" {
		sched = "dmdas"
	}
	key := fmt.Sprintf("%s|%s|%d|%d|%s|%.4f|%s", r.Platform, r.Op, r.N, r.NB, r.Precision, r.BestFrac, sched)
	// Fault-free sweeps keep the historical key (and so their seeds and
	// goldens) byte-for-byte; a fault spec extends the identity so faulty
	// and clean runs of the same row never share a seed.
	if !o.Faults.Zero() {
		key += "|faults=" + o.Faults.String()
	}
	return key
}

// TraceCellKey is the stable identity of one sweep cell — the row key
// extended with the GPU plan and any CPU caps (the Fig. 6 protocol runs
// the same rows twice, with and without caps, and their artifacts must
// not collide).  Hash it through CellSeed to name a cell's trace
// artifacts: the name is a pure function of the cell's configuration,
// never of its position in the grid or the worker that ran it.
func TraceCellKey(row TableIIRow, opt SweepOptions, plan powercap.Plan) string {
	key := rowKey(row, opt) + "|" + plan.String()
	if len(opt.CPUCaps) > 0 {
		sockets := make([]int, 0, len(opt.CPUCaps))
		for s := range opt.CPUCaps {
			sockets = append(sockets, s)
		}
		sort.Ints(sockets)
		for _, s := range sockets {
			key += fmt.Sprintf("|cpu%d=%.1fW", s, float64(opt.CPUCaps[s]))
		}
	}
	return key
}
