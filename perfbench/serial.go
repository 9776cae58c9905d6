package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/prec"
)

// maxReplays bounds how many instrumented jobs a traced run replays
// layer by layer, so a traced run's length stays near an untraced one's.
const maxReplays = 6

// serialJobs is a workload whose jobs run one after another in this
// process.
type serialJobs interface {
	// job runs one job; root is its span, -1 when not instrumented.
	job(w *work, seed int64, job, root int) ([]core.Config, []*core.Result, error)
	// checker captures what the job's check needs, outside the timed job.
	checker(w *work, seed int64, cells []core.Config, results []*core.Result) func() (int, error)
}

// drainer empties an obs bus subscription on its own goroutine, as a
// live telemetry consumer does, until stopped.
type drainer struct {
	sub  *obs.Subscriber
	stop chan struct{}
	done chan struct{}
}

func drain(bus *obs.Bus) *drainer {
	d := &drainer{sub: bus.Subscribe(4096), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for {
			d.sub.Drain()
			select {
			case <-d.stop:
				return
			case <-d.sub.Wait():
			}
		}
	}()
	return d
}

func (d *drainer) close() {
	close(d.stop)
	<-d.done
	d.sub.Close()
}

// serialRun runs jobs back to back until their summed wall time reaches
// d, with at least one job.  The clock runs only inside jobs; checks and
// replays happen between them, outside the window.
func (w *work) serialRun(sj serialJobs, bus *obs.Bus, d time.Duration, instrumented bool) error {
	var spent time.Duration
	for n := 0; n == 0 || spent < d; n++ {
		seed := w.seeds.next()
		job := len(w.jobs)
		root := -1
		pub0, drop0 := bus.Published(), bus.Dropped()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if instrumented {
			root = w.rec.begin("job", job, -1)
		}
		t0, c0 := time.Now(), cpuTime()
		cells, results, err := sj.job(w, seed, job, root)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if instrumented {
			w.rec.end(root)
		}
		runtime.ReadMemStats(&m1)
		spent += wall
		if !instrumented {
			w.jobDone()
		}
		w.window += wall
		w.cpu += cpu
		w.mallocs += m1.Mallocs - m0.Mallocs

		rec := jobRecord{seed: seed, cells: len(cells), wall: wall, cpu: cpu, instrumented: instrumented}
		if err != nil {
			// An errored job fails every cell it was asked to run.
			w.fail("job seed %d: %v", seed, err)
			failed := len(cells)
			rec.check = func() (int, error) { return failed, nil }
			w.jobs = append(w.jobs, rec)
			continue
		}
		if instrumented {
			rs := &w.rt
			rs.jobs++
			rs.cells += len(cells)
			rs.gcCycles += m1.NumGC - m0.NumGC
			rs.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
			rs.bytes += m1.TotalAlloc - m0.TotalAlloc
			rs.events += bus.Published() - pub0
			rs.dropped += bus.Dropped() - drop0
			if w.replayedJobs < maxReplays {
				if err := w.replayJob(job, seed, cells, results); err != nil {
					return err
				}
			}
		}
		rec.check = sj.checker(w, seed, cells, results)
		w.jobs = append(w.jobs, rec)
	}
	return nil
}

// compareDigests runs the reference for cells in-process (two workers,
// no bus, no journal) and counts the cells whose digest differs from
// got, or is missing.
func compareDigests(w *work, cells []core.Config, got []string) (int, error) {
	ref, err := core.RunCells(cells, core.ParallelOptions{Workers: 2})
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	failed := 0
	for i, cfg := range cells {
		want, err := benchcheck.Digest(cfg, ref[i])
		if err != nil {
			return 0, err
		}
		if i >= len(got) || got[i] != want {
			failed++
			w.fail("cell %s: digest differs from the in-process reference", cfg.CheckpointKey())
		}
	}
	return failed, nil
}

func digests(cells []core.Config, results []*core.Result) ([]string, error) {
	out := make([]string, len(cells))
	for i, cfg := range cells {
		if results[i] == nil {
			continue
		}
		d, err := benchcheck.Digest(cfg, results[i])
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// fig4 is the reduced Fig. 4 grid of BenchmarkHotpathCells: the six
// single-precision Table II rows, GEMM at full order and POTRF at half
// order, every canonical plan, run serially through core.RunCells with an
// obs bus and a draining subscriber.  The simulation is nearly all of a
// job; service, checkpoint, span tracing and faults are off.
type fig4 struct {
	rows []core.TableIIRow
	bus  *obs.Bus
	sub  *drainer
}

func fig4Rows() []core.TableIIRow {
	var rows []core.TableIIRow
	for _, r := range core.TableII {
		if r.Precision != prec.Single {
			continue
		}
		scale := 1
		if r.Op == core.POTRF {
			scale = 2
		}
		nt := max(r.N/r.NB/scale, 4)
		r.N = nt * r.NB
		rows = append(rows, r)
	}
	return rows
}

func (f *fig4) setUp(w *work) error {
	f.rows = fig4Rows()
	if len(f.rows) != 6 {
		return fmt.Errorf("fig4-hotpath: expected 6 single-precision Table II rows, got %d", len(f.rows))
	}
	f.bus = obs.NewBus()
	f.sub = drain(f.bus)
	_, _, err := f.job(w, w.seeds.next(), -1, -1)
	return err
}

func (f *fig4) run(w *work, d time.Duration, instrumented bool) error {
	return w.serialRun(f, f.bus, d, instrumented)
}

func (f *fig4) tearDown() {
	if f.sub != nil {
		f.sub.close()
	}
}

func (f *fig4) job(w *work, seed int64, job, root int) ([]core.Config, []*core.Result, error) {
	cells, err := core.SweepCellConfigs(f.rows, core.SweepOptions{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var results []*core.Result
	err = w.timed("core.RunCells", job, root, func() error {
		var err error
		results, err = core.RunCells(cells, core.ParallelOptions{Workers: 1, Events: f.bus})
		return err
	})
	return cells, results, err
}

// checker keeps the job's results (a few KB per cell) and compares their
// digests with a reference run without the bus.
func (f *fig4) checker(w *work, seed int64, cells []core.Config, results []*core.Result) func() (int, error) {
	return func() (int, error) {
		got, err := digests(cells, results)
		if err != nil {
			return 0, err
		}
		return compareDigests(w, cells, got)
	}
}

// chaos is the full Table II grid at scale 4 with span tracing and a
// fault mix, killed half way and resumed: each job runs the first half of
// its cells into a fresh checkpoint journal, closes it as a killed run
// would leave it, then resumes the journal and runs every cell, so half
// restore and half compute.  The fault mix leaves out capfail, which
// errors whole cells at some seeds, and allows six task retries: with
// three, one task in about a million fails all four attempts and errors
// its cell, which happens in about one run in three.
type chaos struct {
	rows []core.TableIIRow
	spec faults.Spec
	bus  *obs.Bus
	sub  *drainer
}

const chaosFaults = "clamp=0.15,throttle=1,dropout=1,taskfail=0.03,retries=6"

func (c *chaos) setUp(w *work) error {
	spec, err := faults.ParseSpec(chaosFaults)
	if err != nil {
		return err
	}
	c.spec = spec
	for _, r := range core.TableII {
		c.rows = append(c.rows, core.ScaleRow(r, 4))
	}
	c.bus = obs.NewBus()
	c.sub = drain(c.bus)
	_, _, err = c.job(w, w.seeds.next(), -1, -1)
	return err
}

func (c *chaos) run(w *work, d time.Duration, instrumented bool) error {
	return w.serialRun(c, c.bus, d, instrumented)
}

func (c *chaos) tearDown() {
	if c.sub != nil {
		c.sub.close()
	}
}

func (c *chaos) cells(seed int64) ([]core.Config, error) {
	return core.GridCells(core.GridSpec{
		Rows:     c.rows,
		Sweep:    core.SweepOptions{Trace: true, Faults: c.spec},
		RootSeed: seed,
	})
}

func (c *chaos) job(w *work, seed int64, job, root int) ([]core.Config, []*core.Result, error) {
	cells, err := c.cells(seed)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(w.dir, fmt.Sprintf("chaos-%d", seed))
	defer os.RemoveAll(dir)
	m := ckpt.Manifest{Identity: fmt.Sprintf("perfbench|chaos-resume|seed=%d", seed), RootSeed: seed}
	half := len(cells) / 2

	// The killed run: half the cells journalled, then the journal is
	// closed with nothing sealed.
	err = w.timed("killed_run", job, root, func() error {
		j, err := ckpt.Create(dir, m)
		if err != nil {
			return err
		}
		_, err = core.RunCells(cells[:half], core.ParallelOptions{Workers: 1, Checkpoint: j, Events: c.bus})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return cells, nil, err
	}
	var results []*core.Result
	err = w.timed("resumed_run", job, root, func() error {
		j, err := ckpt.Resume(dir, m)
		if err != nil {
			return err
		}
		results, err = core.RunCells(cells, core.ParallelOptions{Workers: 1, Checkpoint: j, Events: c.bus})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err == nil && j.Resumed() != half {
			err = fmt.Errorf("resume restored %d of %d journalled cells", j.Resumed(), half)
		}
		return err
	})
	return cells, results, err
}

// checker digests the resumed results now (traced results are large, so
// only the digests are kept) and later compares them with an
// uninterrupted run of the same cells.
func (c *chaos) checker(w *work, seed int64, cells []core.Config, results []*core.Result) func() (int, error) {
	got, err := digests(cells, results)
	return func() (int, error) {
		if err != nil {
			return 0, err
		}
		return compareDigests(w, cells, got)
	}
}

// timed runs fn inside a span under root when the job is instrumented
// (root >= 0), and plainly otherwise.
func (w *work) timed(name string, job, root int, fn func() error) error {
	if root < 0 {
		return fn()
	}
	return w.rec.do(name, job, root, func(int) error { return fn() })
}
