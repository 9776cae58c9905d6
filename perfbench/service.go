package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/telemetry/agg"
)

// jobTimeout bounds the wait for one service job; a healthy job takes a
// fraction of a second.
const jobTimeout = 60 * time.Second

// probeJobs is how many service jobs the traced run of a workload that
// does not use the service sends through it, so that every traced run
// reports the sweepd layer.
const probeJobs = 6

// gridService is the full Table II grid at scale 8 (76 cells of about
// half a millisecond) as jobs through an in-process sweepd.Coordinator on
// a loopback httptest listener, worked by one in-process sweepd.Worker,
// with checkpointing on.  The loop is closed with two jobs outstanding:
// one active, one queued behind it, so the worker never idles between
// jobs.  Lease, HTTP and JSON, codec, journal and rollup work are most
// of a job.
type gridService struct {
	coord      *sweepd.Coordinator
	srv        *httptest.Server
	cancel     context.CancelFunc
	workerDone chan error
	tt         *timingTransport
	// probe marks a service run inside another workload's traced run:
	// its jobs feed the sweepd metrics only.
	probe bool
}

// sweepJob is the handle Coordinator.Submit returns.
type sweepJob interface {
	Done() <-chan struct{}
	Report() *sweepd.JobReport
	ID() string
	ArtifactDir() string
	CheckpointDirUsed() string
}

func serviceSpec(seed int64) sweepd.JobSpec {
	return sweepd.JobSpec{Experiment: "grid", Scale: 8, Seed: seed}
}

func (g *gridService) setUp(w *work) error {
	dir, err := os.MkdirTemp(w.dir, "svc-")
	if err != nil {
		return err
	}
	// A 100 ms heartbeat makes an idle worker poll every ~50 ms, so the
	// join before the warm-up job does not wait out the default 1 s poll.
	g.coord, err = sweepd.New(sweepd.Config{
		CheckpointDir:  filepath.Join(dir, "ckpt"),
		AggDir:         filepath.Join(dir, "agg"),
		HeartbeatEvery: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	g.coord.Start(ctx)
	g.srv = httptest.NewServer(g.coord.Handler())

	joined := g.coord.Bus().Subscribe(64)
	defer joined.Close()
	g.tt = &timingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	worker, err := sweepd.NewWorker(sweepd.WorkerConfig{
		ID:          "perfbench-worker",
		Coordinator: g.srv.URL,
		Client:      &http.Client{Transport: g.tt, Timeout: 30 * time.Second},
	})
	if err != nil {
		return err
	}
	g.workerDone = make(chan error, 1)
	go func() { g.workerDone <- worker.Run(ctx) }()
	if err := waitEvent(joined, obs.WorkerJoined, 10*time.Second); err != nil {
		return err
	}

	job, err := g.coord.Submit(serviceSpec(w.seeds.next()))
	if err != nil {
		return err
	}
	return waitJob(job)
}

func waitEvent(sub *obs.Subscriber, t obs.EventType, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		for _, ev := range sub.Drain() {
			if ev.Type == t {
				return nil
			}
		}
		select {
		case <-sub.Wait():
		case <-deadline.C:
			return fmt.Errorf("no %s event within %v", t, timeout)
		}
	}
}

func waitJob(job sweepJob) error {
	t := time.NewTimer(jobTimeout)
	defer t.Stop()
	select {
	case <-job.Done():
		return nil
	case <-t.C:
		return fmt.Errorf("service job %s did not finish within %v", job.ID(), jobTimeout)
	}
}

func (g *gridService) tearDown() {
	if g.cancel != nil {
		g.cancel()
	}
	if g.workerDone != nil {
		<-g.workerDone
	}
	if g.srv != nil {
		g.srv.Close()
	}
	if g.tt != nil {
		g.tt.base.CloseIdleConnections()
	}
	if g.coord != nil {
		g.coord.Close()
	}
}

// pendingJob is a submitted job the loop waits for.
type pendingJob struct {
	job       sweepJob
	seed      int64
	submitted time.Time
}

// run keeps two jobs outstanding until d has passed, then lets them
// finish.  A job's time runs from Submit until Done, artifacts written.
func (g *gridService) run(w *work, d time.Duration, instrumented bool) error {
	return g.loop(w, d, 0, instrumented)
}

// loop is run with an optional job count: with maxJobs > 0 it submits
// that many jobs whatever the time.
func (g *gridService) loop(w *work, d time.Duration, maxJobs int, instrumented bool) error {
	var queue []pendingJob
	submitted := 0
	submit := func() error {
		seed := w.seeds.next()
		t := time.Now()
		job, err := g.coord.Submit(serviceSpec(seed))
		if err != nil {
			return err
		}
		queue = append(queue, pendingJob{job: job, seed: seed, submitted: t})
		submitted++
		return nil
	}
	more := func(t0 time.Time) bool {
		if maxJobs > 0 {
			return submitted < maxJobs
		}
		return time.Since(t0) < d
	}

	bus := g.coord.Bus()
	pub0, drop0 := bus.Published(), bus.Dropped()
	g.tt.record(instrumented)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), cpuTime()
	for i := 0; i < 2; i++ {
		if err := submit(); err != nil {
			return err
		}
	}
	// A job's CPU time is the process's CPU time from the completion of
	// the job ahead of it to its own: the worker serves jobs one at a time.
	var finished []pendingJob
	var dones []time.Time
	var cpus []time.Duration
	for len(queue) > 0 {
		p := queue[0]
		if err := waitJob(p.job); err != nil {
			return err
		}
		done, cpu := time.Now(), cpuTime()
		queue = queue[1:]
		finished = append(finished, p)
		dones = append(dones, done)
		cpus = append(cpus, cpu)
		if !instrumented && !g.probe {
			w.jobDone()
		}
		if more(t0) {
			if err := submit(); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	g.tt.record(false)
	if !g.probe {
		w.window += dones[len(dones)-1].Sub(t0)
		w.cpu += cpus[len(cpus)-1] - c0
		w.mallocs += m1.Mallocs - m0.Mallocs
	}

	calls := g.tt.take()
	prev := c0
	for i, p := range finished {
		rec := jobRecord{seed: p.seed, cells: p.job.Report().Cells,
			wall: dones[i].Sub(p.submitted), cpu: cpus[i] - prev,
			instrumented: instrumented || g.probe, probe: g.probe,
			check: checkServiceJob(w, p.job, p.seed)}
		prev = cpus[i]
		job := len(w.jobs)
		w.jobs = append(w.jobs, rec)
		if instrumented {
			g.instrumentJob(w, job, p, dones[i], calls)
		}
	}
	if instrumented && !g.probe {
		rs := &w.rt
		rs.jobs += len(finished)
		rs.cells += len(finished) * finished[0].job.Report().Cells
		rs.gcCycles += m1.NumGC - m0.NumGC
		rs.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		rs.bytes += m1.TotalAlloc - m0.TotalAlloc
		rs.events += bus.Published() - pub0
		rs.dropped += bus.Dropped() - drop0
	}
	return nil
}

// instrumentJob turns the worker's recorded HTTP calls for one job into
// spans and sweepd samples, and queues the job's in-process replay for
// after the window.
func (g *gridService) instrumentJob(w *work, job int, p pendingJob, done time.Time, calls []rtCall) {
	id := p.job.ID()
	var mine []rtCall
	var firstLease, lastResult time.Time
	waits := 0
	for _, c := range calls {
		if c.jobID != id {
			continue
		}
		mine = append(mine, c)
		switch c.path {
		case sweepd.PathLease:
			if firstLease.IsZero() || c.start.Before(firstLease) {
				firstLease = c.start
			}
			if c.leases == 0 {
				waits++
			}
			w.svc.leaseRTT = append(w.svc.leaseRTT, ms(c.end.Sub(c.start)))
		case sweepd.PathResult:
			if c.start.After(lastResult) {
				lastResult = c.start
			}
			w.svc.resultRTT = append(w.svc.resultRTT, ms(c.end.Sub(c.start)))
		}
	}
	if firstLease.IsZero() || lastResult.IsZero() {
		w.fail("service job %s: no lease or result call recorded", id)
		return
	}
	w.svc.waitReplies = append(w.svc.waitReplies, float64(waits))
	w.svc.queueWait = append(w.svc.queueWait, ms(firstLease.Sub(p.submitted)))
	w.svc.finish = append(w.svc.finish, ms(done.Sub(lastResult)))

	root := w.rec.add("job", job, -1, 0, p.submitted, done)
	w.rec.add("sweepd.queue_wait", job, root, 0, p.submitted, firstLease)
	active := w.rec.add("sweepd.active", job, root, 0, firstLease, done)
	for _, c := range mine {
		parent := active
		if c.start.Before(firstLease) {
			parent = root
		}
		w.rec.add("sweepd.rtt"+c.path, job, parent, 1, c.start, c.end)
	}

	activeTime := done.Sub(firstLease)
	seed := p.seed
	w.postWindow = append(w.postWindow, func() error {
		cells, err := serviceSpec(seed).Cells()
		if err != nil {
			return err
		}
		t0 := time.Now()
		results, err := core.RunCells(cells, core.ParallelOptions{Workers: 1})
		inproc := time.Since(t0)
		if err != nil {
			return fmt.Errorf("in-process run of service job %s: %w", id, err)
		}
		w.svc.dispatchPerCell = append(w.svc.dispatchPerCell, ms(activeTime-inproc)/float64(len(cells)))
		if g.probe || w.replayedJobs >= maxReplays {
			return nil
		}
		return w.replayJob(job, seed, cells, results)
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkServiceJob compares a finished job's digests.json with
// benchcheck.Digest over the same cells run in-process, and removes the
// job's journals and artifacts.  A quarantined or errored cell has no
// digest, so it counts as failed too.
func checkServiceJob(w *work, job sweepJob, seed int64) func() (int, error) {
	return func() (int, error) {
		defer os.RemoveAll(job.ArtifactDir())
		defer os.RemoveAll(job.CheckpointDirUsed())
		cells, err := serviceSpec(seed).Cells()
		if err != nil {
			return 0, err
		}
		if _, err := os.Stat(filepath.Join(job.ArtifactDir(), agg.SurfaceFile)); err != nil {
			w.fail("service job %s: %v", job.ID(), err)
			return len(cells), nil
		}
		blob, err := os.ReadFile(filepath.Join(job.ArtifactDir(), sweepd.DigestsFile))
		if err != nil {
			w.fail("service job %s: %v", job.ID(), err)
			return len(cells), nil
		}
		var byKey map[string]string
		if err := json.Unmarshal(blob, &byKey); err != nil {
			w.fail("service job %s: %s: %v", job.ID(), sweepd.DigestsFile, err)
			return len(cells), nil
		}
		got := make([]string, len(cells))
		for i, cfg := range cells {
			got[i] = byKey[cfg.CheckpointKey()]
		}
		if q := job.Report().Quarantined; len(q) > 0 {
			w.fail("service job %s: %d cell(s) quarantined", job.ID(), len(q))
		}
		return compareDigests(w, cells, got)
	}
}

// serviceProbe sends a few service jobs through an in-process coordinator
// in the traced run of a workload that does not use the service, so every
// traced run reports the sweepd layer.  The probe's jobs are the
// grid-service job, not the workload's.
func (w *work) serviceProbe() error {
	if w.workload == "grid-service" {
		return nil
	}
	g := &gridService{probe: true}
	defer g.tearDown()
	if err := g.setUp(w); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	return g.loop(w, 0, probeJobs, true)
}

// serviceStats is the sweepd layer as the worker's HTTP client and the
// job handles see it.
type serviceStats struct {
	leaseRTT, resultRTT []float64 // ms per call
	waitReplies         []float64 // lease replies without a lease, per job
	queueWait, finish   []float64 // ms per job
	dispatchPerCell     []float64 // ms per cell, per job
}

// rtCall is one recorded worker request.
type rtCall struct {
	path       string
	jobID      string
	start, end time.Time
	leases     int // leases granted, for lease calls
}

// timingTransport is the worker's http.RoundTripper: while recording, it
// times every request to the coordinator, reply body included, and notes
// which job it was for and how many leases a lease reply granted.
type timingTransport struct {
	base *http.Transport

	mu    sync.Mutex
	on    bool
	calls []rtCall
}

func (t *timingTransport) record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// take returns and clears the recorded calls.
func (t *timingTransport) take() []rtCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	on := t.on
	t.mu.Unlock()
	if !on {
		return t.base.RoundTrip(req)
	}
	var body struct {
		JobID string `json:"job_id"`
	}
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			// Best effort: a body that does not parse is attributed to no job.
			_ = json.NewDecoder(rc).Decode(&body)
			rc.Close()
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	call := rtCall{path: req.URL.Path, jobID: body.JobID, start: start, end: end}
	if call.path == sweepd.PathLease && resp.StatusCode == http.StatusOK {
		var lr sweepd.LeaseReply
		if err := json.Unmarshal(data, &lr); err != nil {
			return nil, errors.New("lease reply: " + err.Error())
		}
		call.leases = len(lr.Leases)
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	return resp, nil
}
