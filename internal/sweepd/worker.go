// The worker side: join the coordinator, expand the job independently,
// execute each lease grant's batch of cells through the guarded
// executor (watchdog, panic containment) under one heartbeat, and
// report the batch's results as checkpoint-codec bytes in one message.
// A worker keeps no state on disk: the coordinator's job journal is the
// only writer of a job's cell records, so a worker that dies re-runs at
// most its batch.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrPoisoned is returned by Worker.Run when a poisoned cell's crash
// hook declined to kill the process (tests override the hook; the real
// binary never sees this error because the default hook is os.Exit).
var ErrPoisoned = errors.New("sweepd: worker crashed on poisoned cell")

// errRejoin is the internal signal that the worker's job is gone.
var errRejoin = errors.New("sweepd: rejoin")

// leaseBatch bounds the cells one lease grant hands a worker (one
// batch: one heartbeat, one result message, and at most this many
// cells re-run when the worker dies mid-batch).  The coordinator may
// grant fewer: each grant is capped at the worker's fair share of the
// pending cells.
const leaseBatch = 8

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID names the worker; it is the lease holder identity, so it must
	// be unique per concurrently-live worker and survive a respawn only
	// if the old process is truly dead.
	ID string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// CellTimeout arms the executor's per-cell watchdog.
	CellTimeout time.Duration
	// Client overrides the HTTP client.
	Client *http.Client
	// CrashFn is called when the worker leases a poisoned cell; the
	// default is os.Exit(3) — the chaos harness's simulated hard crash.
	// Tests substitute a hook that records the kill and stops the worker
	// in-process (Run then returns ErrPoisoned).
	CrashFn func(cellKey string)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.CrashFn == nil {
		c.CrashFn = func(string) { os.Exit(3) }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker executes leased cells for one coordinator.
type Worker struct {
	cfg WorkerConfig

	// rng drives backoff jitter.  Seeded from the worker ID, so a
	// fleet's poll schedule is deterministic per worker yet decorrelated
	// across workers — after a coordinator restart the whole fleet does
	// not re-join and re-poll in lockstep (no thundering herd).  The
	// mutex matters: the heartbeat goroutine posts concurrently with the
	// main loop.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWorker builds a worker; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("sweepd: worker needs an ID")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("sweepd: worker needs a coordinator URL")
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	return &Worker{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(int64(h.Sum64()))),
	}, nil
}

// DeriveNetSeed derives a worker's wire-fault-injector seed from the
// fleet's root seed and the worker's ID, so every worker in a
// supervised fleet draws a distinct but reproducible fault schedule
// from one -net-seed flag.  capserved (serial mode) and capworker use
// the same derivation.
func DeriveNetSeed(root int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return root ^ int64(h.Sum64())
}

// jitter spreads a delay over [0.5d, 1.5d) with the worker's seeded
// rng.  Every sleep the worker takes between protocol calls goes
// through here.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	w.rngMu.Lock()
	f := 0.5 + w.rng.Float64()
	w.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// post sends one protocol request with bounded retry: transport errors
// and 5xx replies (a flaky network, an injected fault, a restarting
// coordinator) retry with jittered doubling backoff; 4xx replies are
// permanent.  Retrying is safe because every handler is idempotent —
// see the protocol notes in serve.go.
func (w *Worker) post(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var last error
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(w.jitter(backoff))
			backoff *= 2
		}
		resp, err := w.cfg.Client.Post(w.cfg.Coordinator+path, "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			last = fmt.Errorf("sweepd: %s: HTTP %d", path, resp.StatusCode)
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return last
			}
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(reply)
		resp.Body.Close()
		return err
	}
	return last
}

// sleep waits or returns early on cancellation.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run joins the coordinator and works until told to drain, the context
// is cancelled, or a poisoned cell crashes the process.  Transient
// coordinator unavailability is retried, not fatal: a worker outliving
// a coordinator restart re-joins and keeps going.
func (w *Worker) Run(ctx context.Context) error {
	retry := 100 * time.Millisecond
	for ctx.Err() == nil {
		var jr JoinReply
		if err := w.post(PathJoin, JoinRequest{WorkerID: w.cfg.ID, PID: os.Getpid()}, &jr); err != nil {
			w.cfg.Logf("sweepd: %s: join: %v", w.cfg.ID, err)
			if !sleep(ctx, w.jitter(retry)) {
				return ctx.Err()
			}
			if retry *= 2; retry > 2*time.Second {
				retry = 2 * time.Second
			}
			continue
		}
		retry = 100 * time.Millisecond
		if jr.Drain {
			return nil
		}
		if jr.JobID == "" || jr.Job == nil {
			if !sleep(ctx, w.jitter(w.idlePoll(jr))) {
				return ctx.Err()
			}
			continue
		}
		err := w.runJob(ctx, jr)
		switch {
		case errors.Is(err, errRejoin):
			continue
		case err != nil:
			return err
		default:
			return nil // drained
		}
	}
	return ctx.Err()
}

// idlePoll picks the no-work poll interval from the join parameters.
func (w *Worker) idlePoll(jr JoinReply) time.Duration {
	d := time.Duration(jr.HeartbeatMs) * time.Millisecond / 2
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// runJob expands the job and works leases until drain or rejoin.
func (w *Worker) runJob(ctx context.Context, jr JoinReply) error {
	cells, err := jr.Job.Cells()
	if err != nil {
		// The job does not expand on this binary (version skew at the
		// spec level); nothing this worker leases can be right.
		return fmt.Errorf("sweepd: %s: job %s does not expand: %w", w.cfg.ID, jr.JobID, err)
	}
	hb := time.Duration(jr.HeartbeatMs) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	w.cfg.Logf("sweepd: %s: working job %s (%d cells)", w.cfg.ID, jr.JobID, len(cells))
	for ctx.Err() == nil {
		var lr LeaseReply
		if err := w.post(PathLease, LeaseRequest{WorkerID: w.cfg.ID, JobID: jr.JobID, Max: leaseBatch}, &lr); err != nil {
			w.cfg.Logf("sweepd: %s: lease: %v", w.cfg.ID, err)
			if !sleep(ctx, w.jitter(hb/2)) {
				break
			}
			continue
		}
		switch {
		case lr.Drain:
			return nil
		case lr.Rejoin:
			return errRejoin
		case len(lr.Leases) == 0:
			// Nothing leasable right now: cells may be backing off or all
			// in flight elsewhere.  Poll again shortly.
			if !sleep(ctx, w.jitter(w.idlePoll(jr))) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runBatch(ctx, jr, cells, lr.Leases, hb); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// errRevoked is the cancellation cause of a lease the coordinator took
// back.
var errRevoked = errors.New("sweepd: lease revoked by coordinator")

// heldCell is one lease of a batch.  Revoking it cancels its context,
// which aborts the cell if it is running and skips it if it is still
// queued.
type heldCell struct {
	Lease
	ctx    context.Context
	cancel context.CancelCauseFunc
	result *CellResult // set once the cell ran or was refused
}

// revoked reports whether the coordinator took the lease back.
func (h *heldCell) revoked() bool { return errors.Is(context.Cause(h.ctx), errRevoked) }

// runBatch executes one grant's cells in grant order under a single
// heartbeat goroutine, then reports every unrevoked outcome in one
// result message; the coordinator makes the batch durable before it
// acks.  A cancellation the coordinator names aborts or skips just that
// cell; its abort is the coordinator's bookkeeping, not a failure of
// the cell, so a revoked cell is never reported.  A worker shutting
// down mid-batch still reports the cells it finished and releases the
// rest, so their leases re-queue at once instead of expiring and
// charging each cell a kill.
func (w *Worker) runBatch(ctx context.Context, jr JoinReply, cells []core.Config, leases []Lease, hb time.Duration) error {
	batch := make([]*heldCell, len(leases))
	for i, l := range leases {
		h := &heldCell{Lease: l}
		h.ctx, h.cancel = context.WithCancelCause(ctx)
		defer h.cancel(nil)
		batch[i] = h
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, jr.JobID, batch, hb)
	}()
	err := w.runCells(ctx, jr, cells, batch)
	stopHB()
	<-hbDone
	if errors.Is(err, ErrPoisoned) {
		return err
	}
	req := ResultRequest{WorkerID: w.cfg.ID, JobID: jr.JobID}
	for _, h := range batch {
		switch {
		case h.revoked():
		case h.result != nil:
			req.Results = append(req.Results, *h.result)
		default:
			req.Released = append(req.Released, h.CellKey)
		}
	}
	if req.Results != nil || req.Released != nil {
		// post's bounded retry absorbs transient faults; an undeliverable
		// batch is dropped (its leases expire and the cells re-run
		// elsewhere — first result wins makes the retry and the re-run
		// equally correct).
		var reply ResultReply
		if perr := w.post(PathResult, req, &reply); perr != nil {
			w.cfg.Logf("sweepd: %s: result batch of %d undeliverable: %v", w.cfg.ID, len(req.Results), perr)
		}
	}
	return err
}

// runCells runs a batch's unrevoked cells in grant order, recording
// each outcome on its heldCell.  It stops early with ctx's error when
// the worker is shutting down, and with ErrPoisoned when a poisoned
// cell's crash hook returns.
func (w *Worker) runCells(ctx context.Context, jr JoinReply, cells []core.Config, batch []*heldCell) error {
	for _, h := range batch {
		if ctx.Err() != nil {
			return ctx.Err() // shutting down; runBatch releases the rest
		}
		r := &CellResult{CellIndex: h.CellIndex, CellKey: h.CellKey}
		if h.CellIndex < 0 || h.CellIndex >= len(cells) || cells[h.CellIndex].CheckpointKey() != h.CellKey {
			// Version skew: this binary expands the job differently than
			// the coordinator.  Refuse the cell rather than compute the
			// wrong one.
			w.cfg.Logf("sweepd: %s: lease %q does not match local expansion — refusing (version skew?)", w.cfg.ID, h.CellKey)
			r.Error = "cell key mismatch: worker expansion disagrees with coordinator (version skew)"
			h.result = r
			continue
		}
		if jr.Job.Poisoned(h.CellKey) {
			// The chaos harness's forced crash: kill the whole process
			// before simulating, every attempt, so the coordinator's kill
			// budget — not any worker-side cleverness — contains the cell.
			w.cfg.Logf("sweepd: %s: leased poisoned cell %s — crashing", w.cfg.ID, h.CellKey)
			w.cfg.CrashFn(h.CellKey)
			return ErrPoisoned
		}
		if h.revoked() {
			continue
		}
		res, err := core.RunCells([]core.Config{cells[h.CellIndex]}, core.ParallelOptions{
			Workers:     1,
			Context:     h.ctx,
			CellTimeout: w.cfg.CellTimeout,
		})
		switch {
		case err == nil:
			payload, perr := core.EncodeResult(res[0])
			if perr != nil {
				r.Error = "encode: " + perr.Error()
			} else {
				r.OK, r.Payload = true, payload
			}
		case ctx.Err() != nil:
			return ctx.Err() // shutting down; runBatch releases this cell
		default:
			r.Error = err.Error()
		}
		h.result = r
	}
	return nil
}

// heartbeat extends every lease the batch still holds, one request per
// tick, until ctx ends; cells the coordinator names as cancelled are
// revoked.
func (w *Worker) heartbeat(ctx context.Context, jobID string, batch []*heldCell, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var keys []string
		for _, h := range batch {
			if !h.revoked() {
				keys = append(keys, h.CellKey)
			}
		}
		if len(keys) == 0 {
			continue
		}
		var hr HeartbeatReply
		if err := w.post(PathHeartbeat, HeartbeatRequest{WorkerID: w.cfg.ID, JobID: jobID, CellKeys: keys}, &hr); err != nil {
			continue // transient; the leases survive until TTL
		}
		if len(hr.Cancelled) > 0 {
			w.cfg.Logf("sweepd: %s: leases %v cancelled by coordinator", w.cfg.ID, hr.Cancelled)
		}
		for _, h := range batch {
			if slices.Contains(hr.Cancelled, h.CellKey) {
				h.cancel(errRevoked)
			}
		}
	}
}
