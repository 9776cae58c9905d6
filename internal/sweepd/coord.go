// The coordinator: owns the durable job queue, the lease table, the
// checkpoint journals, the aggregation surface and the digest ledger,
// and serves the dispatch protocol plus /healthz and the full
// telemetry plane on one HTTP endpoint.
//
// Failure model.  Workers are expendable: a worker that dies (SIGKILL,
// OOM, poison) or wedges (SIGSTOP, livelock) simply stops heartbeating
// — its leases expire, the cells re-queue with exponential backoff,
// and the loss is charged to each cell's kill budget so a cell that
// keeps taking workers down quarantines as poisoned instead of eating
// the fleet.  The coordinator is now held to the same standard as its
// workers: every accepted submission, queue position, burned failure
// budget and terminal report is journaled into a coordinator state
// checkpoint (see state.go) before it is acknowledged, and every
// accepted cell result is fsynced into the per-job "coord" journal —
// one fsync per result batch, taken before the batch is acked — so
// kill -9 on the coordinator loses nothing.  A restarted
// coordinator replays the state journal (Recover), re-enqueues every
// job that was queued or mid-flight, restores each job's completed
// cells from its cell journal and its burned budgets from the state
// journal, and dispatches only the remainder.  The determinism
// contract makes the final artifacts byte-identical to an
// uninterrupted run.
//
// Multi-tenancy.  Jobs queue in a bounded priority/FIFO queue with
// per-tenant admission quotas; a full queue answers 429 with
// Retry-After (backpressure, not buffering), and DELETE /v1/job/{id}
// cancels a job at any point before completion — queued jobs leave
// without ever touching the filesystem, active jobs have their leases
// revoked (workers abandon the cells without reporting them as
// failures) and are sealed without producing artifacts or a report.
package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/agg"
)

// Config tunes a Coordinator.
type Config struct {
	// CheckpointDir is the base directory journals live under: the
	// coordinator's own state journal (coordstate/) plus one cell-journal
	// subdirectory per job.  Workers never read or write it.
	// Empty disables all durability (state lives only in memory).
	CheckpointDir string
	// AggDir is the base directory job artifacts are written under
	// (surface.json, rollups.jsonl, stream.jsonl, digests.json,
	// jobreport.json — one subdirectory per job).
	AggDir string
	// Lease tunes the dispatch state machine.
	Lease LeaseConfig
	// MaxQueue bounds the number of queued (not yet active) jobs; a full
	// queue rejects submissions with 429 + Retry-After.  Defaults to 8.
	MaxQueue int
	// TenantQuota bounds queued+active jobs per named tenant (specs
	// without a tenant label are exempt).  Defaults to 4.
	TenantQuota int
	// HeartbeatEvery is the heartbeat interval advertised to workers;
	// defaults to a third of the lease TTL.
	HeartbeatEvery time.Duration
	// WorkerTimeout declares a silent worker lost; defaults to 2×TTL.
	WorkerTimeout time.Duration
	// Workers is the size of the fleet the caller supervises (capserved
	// -workers; 0 when workers are external).  A lease grant is capped
	// at a fair share of the pending cells over the fleet, and the fleet
	// counts at least this many workers, so the first worker to join
	// does not take a full batch before its peers have registered.
	Workers int
	// Bus receives the service's observability events; one is created
	// when nil.
	Collector *telemetry.Collector
	Bus       *obs.Bus
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	c.Lease = c.Lease.withDefaults()
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.Lease.TTL / 3
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 2 * c.Lease.TTL
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// workerState is one registered worker's liveness record.
type workerState struct {
	id          string
	pid         int
	joinedAt    time.Time
	lastSeen    time.Time
	cellsServed int
}

// jobState is a job's lifecycle position; the strings double as the
// wire-visible JobStatus.State values.
type jobState string

const (
	jobQueued    jobState = "queued"
	jobActive    jobState = "active"
	jobDone      jobState = "done"
	jobCancelled jobState = "cancelled"
)

// activeJob is the coordinator's state for one job, in any lifecycle
// state.  A queued job is pure bookkeeping — cells expanded, lease
// table built, nothing on disk; activation (promotion to dispatch)
// opens the artifact directory and the cell journal, so cancelling a
// queued job never touches the filesystem.
type activeJob struct {
	spec     JobSpec
	id       string
	identity string
	cells    []core.Config
	keys     []string
	table    *Table
	journal  *ckpt.Journal // nil until activated (or with checkpointing off)
	agg      *agg.Aggregator
	dir      string     // artifact directory (under AggDir)
	ckptDir  string     // journal directory (under CheckpointDir)
	mu       sync.Mutex // guards digests, lastBudgets
	digests  map[string]string
	resumed  int
	finished chan struct{}
	finish   sync.Once
	report   *JobReport
	// intake is held shared by every result batch from table update to
	// durable commit and exclusively by finishJob, so a job cannot seal
	// its artifacts between a cell turning done in the table and its
	// result reaching the surface and the digest ledger.
	intake sync.RWMutex

	// Queue state, guarded by Coordinator.mu.
	state        jobState
	tenant       string
	priority     int
	seq          uint64 // state-journal submission order
	idemKey      string
	activated    bool // I/O open, cell journal restored, leasable
	cancelReason string

	lastBudgets []byte // last budget snapshot journaled (guarded by mu)
	drained     bool
}

// coordMetrics is the capsim_sweepd_* family set; nil when no
// collector is attached.
type coordMetrics struct {
	workers       telemetry.Gauge
	leases        telemetry.Gauge
	cellsDone     telemetry.Gauge
	cellsTotal    telemetry.Gauge
	queueDepth    telemetry.Gauge
	granted       telemetry.Counter
	expired       telemetry.Counter
	stolen        telemetry.Counter
	quarantined   telemetry.Counter
	workersLost   telemetry.Counter
	jobsQueued    telemetry.Counter
	jobsCancelled telemetry.Counter
	jobsResumed   telemetry.Counter
	results       *telemetry.CounterVec
}

// Coordinator shards queued jobs, one active at a time, across worker
// processes.
type Coordinator struct {
	cfg     Config
	bus     *obs.Bus
	tracker *obs.Tracker
	mux     *http.ServeMux
	m       *coordMetrics
	state   *stateJournal // nil without CheckpointDir

	mu        sync.Mutex
	jobs      map[string]*activeJob // every job this lifetime, all states
	idem      map[string]string     // idempotency key -> job id
	queue     []*activeJob          // queued jobs, dispatch order
	active    *activeJob
	seq       uint64
	promoting bool
	workers   map[string]*workerState
	draining  bool
	closed    bool
}

// New builds a Coordinator; with a CheckpointDir it opens (and holds
// the flock on) the coordinator state journal, so a second live
// coordinator on the same state directory fails here.  Call Recover to
// replay jobs from a previous life, Start to arm the expiry scanner,
// Handler for the HTTP surface, Submit to enqueue a job, Close to
// release journals without sealing (the crash-shaped shutdown).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	bus := cfg.Bus
	if bus == nil {
		bus = obs.NewBus()
	}
	c := &Coordinator{
		cfg:     cfg,
		bus:     bus,
		tracker: obs.NewTracker(bus),
		jobs:    make(map[string]*activeJob),
		idem:    make(map[string]string),
		workers: make(map[string]*workerState),
	}
	if cfg.CheckpointDir != "" {
		state, err := openStateJournal(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		c.state = state
	}
	if col := cfg.Collector; col != nil {
		col.AttachBus(bus)
		col.AttachProgress(c.tracker)
		r := col.Registry
		c.m = &coordMetrics{
			workers:       r.NewGauge("capsim_sweepd_workers_connected", "Worker processes currently registered with the coordinator.").With(),
			leases:        r.NewGauge("capsim_sweepd_leases_outstanding", "Cell leases currently held by workers.").With(),
			cellsDone:     r.NewGauge("capsim_sweepd_cells_done", "Cells of the active job with an accepted result.").With(),
			cellsTotal:    r.NewGauge("capsim_sweepd_cells_total", "Cells in the active job.").With(),
			queueDepth:    r.NewGauge("capsim_sweepd_queue_depth", "Jobs waiting in the coordinator's queue (the active job excluded).").With(),
			granted:       r.NewCounter("capsim_sweepd_leases_granted_total", "Cell leases granted to workers, steals included.").With(),
			expired:       r.NewCounter("capsim_sweepd_leases_expired_total", "Leases that expired without a heartbeat.").With(),
			stolen:        r.NewCounter("capsim_sweepd_cells_stolen_total", "Straggler leases re-granted to a second worker.").With(),
			quarantined:   r.NewCounter("capsim_sweepd_cells_quarantined_total", "Cells quarantined as poisoned.").With(),
			workersLost:   r.NewCounter("capsim_sweepd_workers_lost_total", "Workers declared lost (process exit or heartbeat silence).").With(),
			jobsQueued:    r.NewCounter("capsim_sweepd_jobs_queued_total", "Job submissions accepted into the queue.").With(),
			jobsCancelled: r.NewCounter("capsim_sweepd_jobs_cancelled_total", "Jobs cancelled before completion (queued or active).").With(),
			jobsResumed:   r.NewCounter("capsim_sweepd_jobs_resumed_total", "Jobs re-enqueued from the state journal after a coordinator restart.").With(),
			results:       r.NewCounter("capsim_sweepd_results_total", "Cell results received from workers.", "status"),
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc(PathJoin, c.handleJoin)
	c.mux.HandleFunc(PathLease, c.handleLease)
	c.mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc(PathResult, c.handleResult)
	c.mux.HandleFunc(PathSubmit, c.handleSubmit)
	c.mux.HandleFunc(PathJobPrefix, c.handleJobByID)
	c.mux.HandleFunc(PathJobs, c.handleJobs)
	c.mux.HandleFunc(PathHealthz, c.handleHealthz)
	c.mux.HandleFunc(PathLive, c.handleLive)
	c.mux.HandleFunc(PathReady, c.handleReady)
	c.mux.HandleFunc(PathState, c.handleState)
	if cfg.Collector != nil {
		// Everything not claimed above falls through to the telemetry
		// plane: /metrics, /progress, /events (SSE), /surface, pprof.
		c.mux.Handle("/", telemetry.Handler(cfg.Collector))
	}
	return c, nil
}

// Bus exposes the coordinator's event bus (for file sinks and tests).
func (c *Coordinator) Bus() *obs.Bus { return c.bus }

// Handler is the coordinator's full HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start arms the tracker and the expiry/liveness scanner; both stop
// when the context is cancelled.
func (c *Coordinator) Start(ctx context.Context) {
	c.tracker.Start(ctx, 1024)
	go c.scan(ctx)
}

// Close releases the coordinator's open journals — the active job's
// cell journal and rollup stream plus the state journal — WITHOUT
// sealing anything: no artifacts, no reports, no terminal records.
// This is the crash-shaped shutdown (and the tests' in-process stand-in
// for kill -9, since flocks are per open file description): everything
// a Close drops on the floor is exactly what Recover rebuilds.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	job := c.active
	c.mu.Unlock()
	if job != nil {
		if job.journal != nil {
			job.journal.Close()
		}
		if job.agg != nil {
			job.agg.Close()
		}
	}
	return c.state.Close()
}

// admitError is a submission rejection with transport semantics: the
// HTTP handler maps it to its status code (and Retry-After), in-process
// callers see a plain error.
type admitError struct {
	code       int
	retryAfter int // seconds; 0 omits the header
	msg        string
}

func (e *admitError) Error() string { return e.msg }

// retryAfterSeconds is the backpressure hint on a 429: long enough for
// a cell or two to finish, short enough that clients re-probe briskly.
const retryAfterSeconds = 5

// buildJob expands a spec into a dispatchable job: cells, keys, lease
// table.  Pure bookkeeping — no I/O — so a job can be queued,
// position-shuffled and cancelled without ever touching the
// filesystem.  Activation (activate) opens the durable half.
func (c *Coordinator) buildJob(spec JobSpec) (*activeJob, error) {
	spec = spec.withDefaults()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweepd: job %s expands to zero cells", spec.Name)
	}
	job := &activeJob{
		spec:     spec,
		id:       spec.ID(),
		identity: spec.Identity(),
		cells:    cells,
		keys:     make([]string, len(cells)),
		digests:  make(map[string]string, len(cells)),
		finished: make(chan struct{}),
		state:    jobQueued,
		tenant:   spec.Tenant,
		priority: spec.Priority,
		idemKey:  spec.IdempotencyKey,
	}
	for i := range cells {
		job.keys[i] = cells[i].CheckpointKey()
	}
	job.table = NewTable(job.keys, c.cfg.Lease)
	return job, nil
}

// Submit enqueues a job (or returns the existing one on a replay) and
// starts dispatching it as soon as the queue reaches it.  Use Done()
// on the returned job to wait for completion.
func (c *Coordinator) Submit(spec JobSpec) (*activeJob, error) {
	job, _, err := c.submit(spec)
	return job, err
}

// submit is the admission path: dedup (job identity, then idempotency
// key), drain check, queue bound, tenant quota, then a durable queued
// record and promotion.  The duplicate flag marks a replay that was
// answered with an existing job.
func (c *Coordinator) submit(spec JobSpec) (*activeJob, bool, error) {
	spec = spec.withDefaults()
	id := spec.ID()

	// Fast-path dedup before paying for cell expansion.
	c.mu.Lock()
	if job := c.dedupLocked(id, spec.IdempotencyKey); job != nil {
		c.mu.Unlock()
		return job, true, nil
	}
	c.mu.Unlock()

	job, err := c.buildJob(spec)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	// Re-check: a racing identical submit may have won while we expanded.
	if prev := c.dedupLocked(id, spec.IdempotencyKey); prev != nil {
		c.mu.Unlock()
		return prev, true, nil
	}
	if c.draining {
		c.mu.Unlock()
		return nil, false, &admitError{code: http.StatusServiceUnavailable, msg: "sweepd: coordinator is draining"}
	}
	if len(c.queue) >= c.cfg.MaxQueue {
		c.mu.Unlock()
		return nil, false, &admitError{code: http.StatusTooManyRequests, retryAfter: retryAfterSeconds,
			msg: fmt.Sprintf("sweepd: queue full (%d job(s) queued)", c.cfg.MaxQueue)}
	}
	if spec.Tenant != "" {
		n := 0
		for _, j := range c.jobs {
			if j.tenant == spec.Tenant && (j.state == jobQueued || j.state == jobActive) {
				n++
			}
		}
		if n >= c.cfg.TenantQuota {
			c.mu.Unlock()
			return nil, false, &admitError{code: http.StatusTooManyRequests, retryAfter: retryAfterSeconds,
				msg: fmt.Sprintf("sweepd: tenant %q at quota (%d job(s) queued or active)", spec.Tenant, n)}
		}
	}
	c.seq++
	job.seq = c.seq
	c.jobs[id] = job
	if job.idemKey != "" {
		c.idem[job.idemKey] = id
	}
	c.enqueueLocked(job)
	c.mu.Unlock()

	// Durable before acknowledged: once the caller sees this submission
	// accepted, no coordinator crash can forget it.
	if err := c.state.Queued(id, job.seq, spec); err != nil {
		c.cfg.Logf("sweepd: state journal (queued %s): %v", id, err)
	}
	c.bus.Publish(obs.Event{Type: obs.JobQueued, Detail: id + " (" + spec.Name + ")"})
	if c.m != nil {
		c.m.jobsQueued.Inc()
	}
	c.cfg.Logf("sweepd: job %s (%s) queued: %d cell(s), tenant=%q priority=%d",
		id, spec.Name, len(job.cells), job.tenant, job.priority)
	c.syncGauges()
	c.promote()
	return job, false, nil
}

// dedupLocked returns the job a replayed submission should be answered
// with: same identity (unless that job was cancelled — cancellation
// re-opens the slot) or same idempotency key.  c.mu held.
func (c *Coordinator) dedupLocked(id, idemKey string) *activeJob {
	if job := c.jobs[id]; job != nil && job.state != jobCancelled {
		return job
	}
	if idemKey != "" {
		if jid, ok := c.idem[idemKey]; ok {
			if job := c.jobs[jid]; job != nil && job.state != jobCancelled {
				return job
			}
		}
	}
	return nil
}

// enqueueLocked inserts by priority (higher first), FIFO within a
// priority.  c.mu held.
func (c *Coordinator) enqueueLocked(job *activeJob) {
	pos := len(c.queue)
	for i, q := range c.queue {
		if q.priority < job.priority {
			pos = i
			break
		}
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[pos+1:], c.queue[pos:])
	c.queue[pos] = job
}

// queuePositionLocked reports a queued job's 1-based position; 0 when
// not queued.  c.mu held.
func (c *Coordinator) queuePositionLocked(job *activeJob) int {
	for i, q := range c.queue {
		if q == job {
			return i + 1
		}
	}
	return 0
}

// promote drains the queue head-first into the active slot.  The
// promoting flag serialises concurrent callers (submit, finishJob,
// Cancel, Recover) without holding c.mu across activation I/O; the
// loop re-checks after each activation so a job that finishes
// instantly (fully resumed from its journal) or was cancelled
// mid-activation immediately yields to the next.
func (c *Coordinator) promote() {
	c.mu.Lock()
	if c.promoting {
		c.mu.Unlock()
		return
	}
	c.promoting = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.promoting = false
		c.mu.Unlock()
	}()
	for {
		c.mu.Lock()
		if c.draining || c.closed || c.active != nil || len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		job := c.queue[0]
		c.queue = c.queue[1:]
		job.state = jobActive
		c.active = job
		c.mu.Unlock()
		c.syncGauges()

		if err := c.activate(job); err != nil {
			c.cfg.Logf("sweepd: job %s activation failed: %v", job.id, err)
			c.mu.Lock()
			job.state = jobCancelled
			job.cancelReason = "activation failed: " + err.Error()
			if c.active == job {
				c.active = nil
			}
			c.mu.Unlock()
			if serr := c.state.Cancelled(job.id, job.seq, job.spec, job.cancelReason); serr != nil {
				c.cfg.Logf("sweepd: state journal (cancel %s): %v", job.id, serr)
			}
			c.sealCancelled(job)
			continue
		}
		c.checkFinished(job)
		c.mu.Lock()
		stillActive := c.active == job
		c.mu.Unlock()
		if stillActive {
			return // dispatching; finishJob promotes the next when it seals
		}
	}
}

// activate opens a promoted job's durable half — artifact directory,
// rollup stream, cell journal — restores every cell any previous
// process committed, and makes the job leasable.  Runs without c.mu
// held (journal open and restore are I/O); a cancellation that lands
// mid-activation is honoured at the two re-check points.
func (c *Coordinator) activate(job *activeJob) error {
	stamp := job.spec.Name + "-" + job.id
	if c.cfg.AggDir != "" {
		job.dir = filepath.Join(c.cfg.AggDir, stamp)
		if err := os.MkdirAll(job.dir, 0o755); err != nil {
			return err
		}
		sink, err := agg.NewJSONLSink(filepath.Join(job.dir, agg.StreamFile))
		if err != nil {
			return err
		}
		job.agg = agg.New(sink, agg.ExporterConfig{})
	}
	if c.cfg.CheckpointDir != "" {
		job.ckptDir = filepath.Join(c.cfg.CheckpointDir, stamp)
		journal, err := ckpt.Open(job.ckptDir, ckpt.Manifest{Identity: job.identity, RootSeed: job.spec.Seed}, "coord")
		if err != nil {
			if job.agg != nil {
				job.agg.Close()
			}
			return err
		}
		job.journal = journal
	}

	c.mu.Lock()
	if job.state == jobCancelled {
		// Cancelled while we were opening I/O: seal and walk away.
		c.mu.Unlock()
		c.sealCancelled(job)
		return nil
	}
	c.mu.Unlock()

	if c.cfg.Collector != nil && job.agg != nil {
		c.cfg.Collector.SetSurface(job.agg.Surface())
	}
	totals := make(map[string]int)
	for i := range job.cells {
		totals[job.cells[i].PlanLabel()]++
	}
	c.bus.Publish(obs.Event{Type: obs.SweepStarted, Total: len(job.cells), PlanTotals: totals})

	// Resume: every cell the job's journals hold — the coordinator's,
	// and any that workers of an earlier version wrote into the same
	// directory — is restored, fed to the surface and the digest ledger,
	// and never dispatched.
	if job.journal != nil {
		undecodable := 0
		for i, key := range job.keys {
			rec, ok := job.journal.Lookup(key)
			if !ok || rec.Status != ckpt.StatusDone {
				continue
			}
			res, err := core.DecodeResult(rec.Payload)
			if err != nil {
				// Another codec version (an old gob journal) or a corrupt
				// payload: the cell re-runs.
				undecodable++
				continue
			}
			job.table.RestoreDone(key)
			job.resumed++
			c.acceptResult(job, i, res, rec.Payload, true)
			c.bus.Publish(obs.Event{Type: obs.CellResumed, Cell: key,
				Plan: job.cells[i].PlanLabel(), Workload: job.cells[i].Workload.String(),
				SimTime: float64(res.Makespan), Efficiency: res.Efficiency})
		}
		if job.resumed > 0 {
			c.cfg.Logf("sweepd: job %s: resumed %d cell(s) from %s", job.id, job.resumed, job.ckptDir)
		}
		if undecodable > 0 {
			c.cfg.Logf("sweepd: job %s: %d journalled cell(s) in %s did not decode and will re-run", job.id, undecodable, job.ckptDir)
		}
	}

	c.mu.Lock()
	if job.state == jobCancelled {
		// Cancelled while we were restoring: same exit.
		c.mu.Unlock()
		c.sealCancelled(job)
		return nil
	}
	job.activated = true
	c.mu.Unlock()
	c.syncGauges()
	c.cfg.Logf("sweepd: job %s (%s) active: %d cell(s), %d resumed", job.id, job.spec.Name, len(job.cells), job.resumed)
	return nil
}

// sealCancelled closes a cancelled job's open resources — rollup stream
// and cell journal, if activation got that far — WITHOUT writing
// artifacts, digests or a report: a cancelled job never produces a
// report.  Idempotent via the job's finish latch.
func (c *Coordinator) sealCancelled(job *activeJob) {
	job.finish.Do(func() {
		if job.agg != nil {
			if err := job.agg.Close(); err != nil {
				c.cfg.Logf("sweepd: rollup stream close: %v", err)
			}
		}
		if job.journal != nil {
			if err := job.journal.Close(); err != nil {
				c.cfg.Logf("sweepd: journal close: %v", err)
			}
		}
		close(job.finished)
	})
}

// Cancel revokes a job.  Queued jobs leave the queue with nothing to
// clean up; the active job is journaled as cancelled, sealed without
// artifacts, and its outstanding leases die by omission — the next
// heartbeat for a job that is no longer current answers "cancelled"
// for every key, and workers abandon those cells without reporting
// them as failures.  Cancelling a cancelled job is an idempotent
// success; cancelling a finished one conflicts.  The int is the HTTP
// status the reply should travel with.
func (c *Coordinator) Cancel(id, reason string) (CancelReply, int) {
	c.mu.Lock()
	job := c.jobs[id]
	if job == nil {
		c.mu.Unlock()
		return CancelReply{JobID: id}, http.StatusNotFound
	}
	switch job.state {
	case jobCancelled:
		c.mu.Unlock()
		return CancelReply{JobID: id, State: string(jobCancelled), Cancelled: true, AlreadyCancelled: true}, http.StatusOK
	case jobDone:
		c.mu.Unlock()
		return CancelReply{JobID: id, State: string(jobDone)}, http.StatusConflict
	case jobQueued:
		job.state = jobCancelled
		job.cancelReason = reason
		for i, q := range c.queue {
			if q == job {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		if err := c.state.Cancelled(id, job.seq, job.spec, reason); err != nil {
			c.cfg.Logf("sweepd: state journal (cancel %s): %v", id, err)
		}
		c.sealCancelled(job)
		c.noteCancelled(job, reason)
		return CancelReply{JobID: id, State: string(jobCancelled), Cancelled: true}, http.StatusOK
	default: // jobActive
		job.state = jobCancelled
		job.cancelReason = reason
		wasActivated := job.activated
		if c.active == job {
			c.active = nil
		}
		c.mu.Unlock()
		revoked := job.table.Counts().Leases
		if err := c.state.Cancelled(id, job.seq, job.spec, reason); err != nil {
			c.cfg.Logf("sweepd: state journal (cancel %s): %v", id, err)
		}
		if wasActivated {
			// Mid-activation cancels are sealed by activate itself when it
			// hits a re-check point; sealing here too would race the open.
			c.sealCancelled(job)
		}
		c.noteCancelled(job, reason)
		c.syncGauges()
		c.promote()
		return CancelReply{JobID: id, State: string(jobCancelled), Cancelled: true, LeasesRevoked: revoked}, http.StatusOK
	}
}

// noteCancelled publishes and counts a cancellation.
func (c *Coordinator) noteCancelled(job *activeJob, reason string) {
	c.cfg.Logf("sweepd: job %s (%s) cancelled: %s", job.id, job.spec.Name, reason)
	c.bus.Publish(obs.Event{Type: obs.JobCancelled, Detail: job.id + " (" + job.spec.Name + ")"})
	if c.m != nil {
		c.m.jobsCancelled.Inc()
	}
}

// Recover replays the state journal from a previous coordinator life:
// queued jobs (and the job that was mid-flight at the crash — its
// record is still "queued") re-enter the queue in their original
// order, drained partials re-enqueue to finish their remainder,
// terminal jobs come back as queryable records, burned failure budgets
// are restored into each lease table, and the idempotency map is
// rebuilt so Submit replays keep answering with the original jobs.
// Returns how many jobs re-entered the queue.  Call after New, before
// serving traffic.
func (c *Coordinator) Recover() (int, error) {
	recovered, err := c.state.replay()
	if err != nil {
		return 0, err
	}
	resumed := 0
	var maxSeq uint64
	for _, rj := range recovered {
		if rj.seq > maxSeq {
			maxSeq = rj.seq
		}
		job, err := c.buildJob(rj.spec)
		if err != nil {
			c.cfg.Logf("sweepd: recover job %s: spec does not expand: %v", rj.id, err)
			continue
		}
		if job.id != rj.id {
			// The journaled spec expands to a different identity on this
			// binary (version skew); resuming it would dispatch wrong cells.
			c.cfg.Logf("sweepd: recover job %s: identity skew (now %s) — dropping", rj.id, job.id)
			continue
		}
		job.seq = rj.seq
		if rj.resumable {
			if len(rj.budgets) > 0 {
				job.table.RestoreBudgets(rj.budgets)
				if data, err := json.Marshal(rj.budgets); err == nil {
					job.lastBudgets = data
				}
			}
			c.mu.Lock()
			c.jobs[job.id] = job
			if job.idemKey != "" {
				c.idem[job.idemKey] = job.id
			}
			c.enqueueLocked(job)
			c.mu.Unlock()
			resumed++
			c.bus.Publish(obs.Event{Type: obs.JobResumed, Detail: job.id + " (" + job.spec.Name + ")"})
			if c.m != nil {
				c.m.jobsResumed.Inc()
			}
			c.cfg.Logf("sweepd: job %s (%s) recovered into queue", job.id, job.spec.Name)
			continue
		}
		// Terminal: done (kept for dedup and /v1/job/{id} queries) or cancelled
		// (tombstone; never becomes work again).
		switch rj.status {
		case stateDone:
			job.state = jobDone
			job.report = rj.report
		case stateCancelled:
			job.state = jobCancelled
			job.cancelReason = rj.reason
		}
		job.finish.Do(func() { close(job.finished) })
		c.mu.Lock()
		c.jobs[job.id] = job
		if job.idemKey != "" {
			c.idem[job.idemKey] = job.id
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	if maxSeq > c.seq {
		c.seq = maxSeq
	}
	c.mu.Unlock()
	if resumed > 0 {
		c.cfg.Logf("sweepd: recovered %d job(s) from state journal", resumed)
	}
	c.syncGauges()
	c.promote()
	return resumed, nil
}

// Done returns the channel closed when the given job reaches a
// terminal state (all cells terminal, drain, or cancellation).
func (job *activeJob) Done() <-chan struct{} { return job.finished }

// Report returns the job's final report (nil until finished; always
// nil for a cancelled job — a cancelled job never produces a report).
func (job *activeJob) Report() *JobReport { return job.report }

// ID reports the job's wire identifier.
func (job *activeJob) ID() string { return job.id }

// ArtifactDir reports where the job's artifacts land ("" without
// AggDir or before activation).
func (job *activeJob) ArtifactDir() string { return job.dir }

// CheckpointDirUsed reports the job's journal directory ("" without
// checkpointing or before activation).
func (job *activeJob) CheckpointDirUsed() string { return job.ckptDir }
