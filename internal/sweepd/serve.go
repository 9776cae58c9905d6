// The coordinator's protocol handlers and background loops: join /
// lease / heartbeat / result intake, job admission and cancellation,
// the expiry-and-liveness scanner, job finish (artifact writing) and
// graceful drain.
//
// Idempotency at the wire.  The protocol assumes a network that can
// delay, drop, duplicate or 5xx any message (internal/faults.NetInjector
// makes that assumption executable in tests), so every handler is safe
// to replay: a duplicated result batch is first-result-wins cell by
// cell (each duplicate is acked and dropped), a retried lease acquire
// re-grants the worker's existing holdings instead of fanning it out
// across new cells, a replayed submit answers with the original job
// (identity dedup plus explicit idempotency keys), and a repeated
// cancel is an idempotent success.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fsutil"
	"repro/internal/obs"
)

// Artifact files the coordinator writes next to the aggregation
// artifacts: the per-cell core.Digest ledger (the chaos gate's
// identity fingerprint) and the job's durable summary.
const (
	DigestsFile = "digests.json"
	ReportFile  = "jobreport.json"
)

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// readJSON decodes a POST body into v; replies and reports false on
// misuse.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// touchWorker upserts a worker's liveness record; c.mu must be held.
func (c *Coordinator) touchWorker(id string, pid int) *workerState {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{id: id, pid: pid, joinedAt: time.Now()}
		c.workers[id] = ws
	}
	if pid != 0 {
		ws.pid = pid
	}
	ws.lastSeen = time.Now()
	return ws
}

// current returns the job workers should be dispatched on: active and
// fully activated (journal restored — a worker must not lease cells a
// restore is about to mark done).  c.mu must be held.
func (c *Coordinator) current() *activeJob {
	if c.active != nil && c.active.activated && c.active.state == jobActive {
		return c.active
	}
	return nil
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		http.Error(w, "worker_id required", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	fresh := c.workers[req.WorkerID] == nil
	c.touchWorker(req.WorkerID, req.PID)
	job := c.current()
	reply := JoinReply{
		LeaseTTLMs:  c.cfg.Lease.TTL.Milliseconds(),
		HeartbeatMs: c.cfg.HeartbeatEvery.Milliseconds(),
		Drain:       c.draining,
	}
	if job != nil {
		spec := job.spec
		reply.JobID = job.id
		reply.Job = &spec
	}
	c.mu.Unlock()
	if fresh {
		c.cfg.Logf("sweepd: worker %s joined (pid %d)", req.WorkerID, req.PID)
		c.bus.Publish(obs.Event{Type: obs.WorkerJoined, Detail: req.WorkerID})
	}
	c.syncGauges()
	writeJSON(w, http.StatusOK, reply)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.touchWorker(req.WorkerID, 0)
	job := c.current()
	draining := c.draining
	fleet := len(c.workers)
	c.mu.Unlock()
	if fleet < c.cfg.Workers {
		fleet = c.cfg.Workers // supervised workers not yet joined
	}

	switch {
	case draining:
		writeJSON(w, http.StatusOK, LeaseReply{Drain: true})
		return
	case job == nil:
		writeJSON(w, http.StatusOK, LeaseReply{Wait: true})
		return
	case req.JobID != job.id:
		writeJSON(w, http.StatusOK, LeaseReply{Rejoin: true})
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	job.table.SetFleet(fleet)
	leases, events := job.table.Acquire(req.WorkerID, max, c.tracker.P95())
	c.publish(events)
	for _, l := range leases {
		if l.Regrant {
			continue // replayed acquire: the cell already started
		}
		cfg := job.cells[l.CellIndex]
		c.bus.Publish(obs.Event{Type: obs.CellStarted, Cell: l.CellKey,
			Plan: cfg.PlanLabel(), Workload: cfg.Workload.String()})
	}
	c.syncGauges()
	writeJSON(w, http.StatusOK, LeaseReply{Leases: leases, Wait: len(leases) == 0})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.touchWorker(req.WorkerID, 0)
	job := c.current()
	draining := c.draining
	c.mu.Unlock()
	reply := HeartbeatReply{Drain: draining}
	if job == nil || req.JobID != job.id {
		// The worker's job is no longer current (finished, cancelled, or
		// the coordinator restarted): nothing it holds is still wanted.
		// This is the cancellation path's worker half — abandoned cells
		// are never reported, so they cost no failure budget.
		reply.Cancelled = req.CellKeys
	} else {
		reply.Cancelled = job.table.Heartbeat(req.WorkerID, req.CellKeys)
		// A heartbeat can retract provisional expiry kills; keep the
		// durable budgets in step.
		c.journalBudgets(job)
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleResult takes one worker's batch of cell outcomes.  Each cell
// goes through intake on its own — first result wins per cell, so a
// duplicated or replayed batch dedups cell by cell — and the accepted
// results share one fsync of the job's journal, taken before the
// reply.  Cells the worker gives back unrun are released without a
// kill.  A failed sync answers 500 after the bookkeeping is done (see
// DESIGN §17 for what that costs).
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Results == nil && req.Released == nil {
		// A pre-batching worker's single-cell report: refuse it loudly
		// rather than drop the cell it carries.
		http.Error(w, "results required: this coordinator takes batched result reports", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	ws := c.touchWorker(req.WorkerID, 0)
	job := c.current()
	c.mu.Unlock()
	reply := ResultReply{Acks: make([]ResultAck, len(req.Results))}
	if job == nil || req.JobID != job.id {
		writeJSON(w, http.StatusOK, reply)
		return
	}
	served, err := c.intakeBatch(job, req, reply.Acks)
	job.table.Release(req.WorkerID, req.Released)
	c.mu.Lock()
	ws.cellsServed += served
	c.mu.Unlock()
	c.journalBudgets(job)
	c.syncGauges()
	c.checkFinished(job)
	if err != nil {
		c.cfg.Logf("sweepd: journal sync: %v", err)
		http.Error(w, "journal sync failed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// intakeBatch takes every cell of a batch through intake, filling
// acks, under one group commit of the job's journal; it reports how
// many results won their cell and the commit's sync error.
func (c *Coordinator) intakeBatch(job *activeJob, req ResultRequest, acks []ResultAck) (served int, err error) {
	job.intake.RLock()
	defer job.intake.RUnlock()
	if job.journal != nil {
		job.journal.Defer()
	}
	for i, cr := range req.Results {
		acks[i] = c.intake(job, req.WorkerID, cr)
		if acks[i].First {
			served++
		}
	}
	if job.journal != nil {
		err = job.journal.Sync()
	}
	return served, err
}

// intake records one cell's reported outcome against the job's lease
// table: an OK result that is the first for its cell is committed, a
// duplicate is acked and dropped, and a failure (reported, or a
// payload that does not decode) charges the cell's failure budget.
func (c *Coordinator) intake(job *activeJob, worker string, cr CellResult) ResultAck {
	if cr.CellIndex < 0 || cr.CellIndex >= len(job.keys) || job.keys[cr.CellIndex] != cr.CellKey {
		c.cfg.Logf("sweepd: worker %s reported unknown cell %d/%q", worker, cr.CellIndex, cr.CellKey)
		return ResultAck{}
	}
	ok, errMsg := cr.OK, cr.Error
	var res *core.Result
	if ok {
		var err error
		res, err = core.DecodeResult(cr.Payload)
		if err != nil {
			ok, errMsg = false, "payload decode: "+err.Error()
		}
	}
	first, events := job.table.Complete(worker, cr.CellKey, ok, errMsg)
	c.publish(events)
	switch {
	case !ok:
		c.countResult("error")
		cfg := job.cells[cr.CellIndex]
		c.bus.Publish(obs.Event{Type: obs.CellPanicked, Cell: cr.CellKey,
			Plan: cfg.PlanLabel(), Workload: cfg.Workload.String(), Detail: errMsg})
	case first:
		c.acceptResult(job, cr.CellIndex, res, cr.Payload, false)
		c.countResult("ok")
	default:
		// A duplicated delivery (network dup, worker retry after a lost
		// ack, late straggler): first result won, this one is acked and
		// dropped — the determinism contract makes the bytes identical.
		c.countResult("duplicate")
	}
	return ResultAck{Accepted: true, First: first}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !readJSON(w, r, &spec) {
		return
	}
	job, dup, err := c.submit(spec)
	if err != nil {
		var ae *admitError
		if errors.As(err, &ae) {
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
			}
			http.Error(w, ae.msg, ae.code)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	reply := SubmitReply{
		JobID:     job.id,
		Cells:     len(job.cells),
		State:     string(job.state),
		Position:  c.queuePositionLocked(job),
		Duplicate: dup,
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// jobStatus builds the wire status document for one job.
func (c *Coordinator) jobStatus(job *activeJob) JobStatus {
	c.mu.Lock()
	st := JobStatus{
		JobID:  job.id,
		Name:   job.spec.Name,
		Tenant: job.tenant,
		State:  string(job.state),
	}
	if job.state == jobQueued {
		st.Position = c.queuePositionLocked(job)
	}
	c.mu.Unlock()
	st.Counts = job.table.Counts()
	select {
	case <-job.finished:
		st.Finished = true
		st.Report = job.Report()
	default:
	}
	return st
}

// handleJobByID serves GET /v1/job/{id} (status) and DELETE
// /v1/job/{id} (cancel).
func (c *Coordinator) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, PathJobPrefix)
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		c.mu.Lock()
		job := c.jobs[id]
		c.mu.Unlock()
		if job == nil {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, c.jobStatus(job))
	case http.MethodDelete:
		reply, code := c.Cancel(id, "client request")
		if code == http.StatusNotFound {
			http.Error(w, "no such job", code)
			return
		}
		writeJSON(w, code, reply)
	default:
		http.Error(w, "GET or DELETE required", http.StatusMethodNotAllowed)
	}
}

// handleJobs lists every job the coordinator knows — queued, active,
// terminal, and recovered — in submission order.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jobs := make([]*activeJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	reply := JobsReply{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		reply.Jobs = append(reply.Jobs, c.jobStatus(j))
	}
	writeJSON(w, http.StatusOK, reply)
}

// healthz builds the /healthz document; callers pass nothing and get a
// consistent snapshot.
func (c *Coordinator) healthz() HealthzReply {
	c.mu.Lock()
	job := c.active
	workers := len(c.workers)
	draining := c.draining
	depth := len(c.queue)
	c.mu.Unlock()
	rep := HealthzReply{
		Status:     "idle",
		Workers:    workers,
		QueueDepth: depth,
		QueueMax:   c.cfg.MaxQueue,
		Accepting:  !draining && depth < c.cfg.MaxQueue,
	}
	if job != nil {
		rep.JobID = job.id
		rep.Counts = job.table.Counts()
		rep.Status = "ok"
		if rep.Counts.Quarantined > 0 {
			rep.Status = "degraded"
		}
	}
	if draining {
		rep.Status = "draining"
	}
	return rep
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.healthz())
}

// handleLive is pure liveness: the process is up and serving.  It says
// nothing about whether work is accepted — that is readiness.
func (c *Coordinator) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReady reflects admission: 200 while the queue has room and the
// coordinator is not draining, 503 otherwise — so a load balancer
// stops routing submissions to a coordinator that would only answer
// 429/503 anyway.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	h := c.healthz()
	if h.Accepting {
		writeJSON(w, http.StatusOK, ReadyReply{Ready: true})
		return
	}
	reason := "queue full"
	if h.Status == "draining" {
		reason = "draining"
	}
	writeJSON(w, http.StatusServiceUnavailable, ReadyReply{Ready: false, Reason: reason})
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	rep := StateReply{Healthz: c.healthz()}
	c.mu.Lock()
	for _, ws := range c.workers {
		rep.Workers = append(rep.Workers, WorkerSnapshot{
			ID: ws.id, PID: ws.pid, JoinedAt: ws.joinedAt,
			LastSeen: ws.lastSeen, CellsServed: ws.cellsServed,
		})
	}
	job := c.active
	c.mu.Unlock()
	sort.Slice(rep.Workers, func(i, j int) bool { return rep.Workers[i].ID < rep.Workers[j].ID })
	if job != nil {
		rep.Quar = job.table.Quarantined()
	}
	writeJSON(w, http.StatusOK, rep)
}

// ---- result intake ----

// acceptResult commits the first accepted result for a cell: journal
// (unless it came from there), surface, digest ledger, CellFinished.
func (c *Coordinator) acceptResult(job *activeJob, idx int, res *core.Result, payload []byte, restored bool) {
	cfg := job.cells[idx]
	key := job.keys[idx]
	if !restored && job.journal != nil {
		if err := job.journal.Commit(ckpt.Record{Key: key, Status: ckpt.StatusDone, Payload: payload}); err != nil {
			c.cfg.Logf("sweepd: journal commit %s: %v", key, err)
		}
	}
	if d, err := core.Digest(cfg, res); err == nil {
		job.mu.Lock()
		job.digests[key] = d
		job.mu.Unlock()
	}
	if job.agg != nil {
		job.agg.ObserveCell(core.BuildRollup(cfg, res))
	}
	if !restored {
		c.bus.Publish(obs.Event{Type: obs.CellFinished, Cell: key,
			Plan: cfg.PlanLabel(), Workload: cfg.Workload.String(),
			SimTime: float64(res.Makespan), Efficiency: res.Efficiency})
	}
}

// journalBudgets persists the job's burned failure budgets when they
// changed since the last snapshot.  json.Marshal renders map keys
// sorted, so the serialized form is canonical and the change check is
// a byte compare — unchanged budgets cost no fsync.
func (c *Coordinator) journalBudgets(job *activeJob) {
	if c.state == nil || job == nil {
		return
	}
	snap := job.table.BudgetSnapshot()
	job.mu.Lock()
	if len(snap) == 0 && job.lastBudgets == nil {
		job.mu.Unlock()
		return
	}
	data, err := json.Marshal(snap)
	if err != nil || string(data) == string(job.lastBudgets) {
		job.mu.Unlock()
		return
	}
	job.lastBudgets = data
	job.mu.Unlock()
	if err := c.state.Budgets(job.id, data); err != nil {
		c.cfg.Logf("sweepd: state journal (budgets %s): %v", job.id, err)
	}
}

// publish forwards table-produced events to the bus and counts them.
func (c *Coordinator) publish(events []obs.Event) {
	for _, ev := range events {
		c.bus.Publish(ev)
		if c.m == nil {
			continue
		}
		switch ev.Type {
		case obs.LeaseGranted:
			c.m.granted.Inc()
		case obs.LeaseExpired:
			c.m.expired.Inc()
		case obs.CellStolen:
			c.m.stolen.Inc()
		case obs.CellQuarantined:
			c.m.quarantined.Inc()
		}
	}
}

func (c *Coordinator) countResult(status string) {
	if c.m != nil {
		c.m.results.With(status).Inc()
	}
}

// syncGauges refreshes the capsim_sweepd_* gauge family.
func (c *Coordinator) syncGauges() {
	if c.m == nil {
		return
	}
	c.mu.Lock()
	workers := len(c.workers)
	job := c.active
	depth := len(c.queue)
	c.mu.Unlock()
	c.m.workers.Set(float64(workers))
	c.m.queueDepth.Set(float64(depth))
	if job == nil {
		return
	}
	counts := job.table.Counts()
	c.m.leases.Set(float64(counts.Leases))
	c.m.cellsDone.Set(float64(counts.Done))
	c.m.cellsTotal.Set(float64(counts.Total))
}

// ---- worker loss, expiry, finish ----

// WorkerExited is the supervisor's hook: the process behind pid is
// gone, release its leases immediately instead of waiting for expiry.
func (c *Coordinator) WorkerExited(pid int) {
	c.mu.Lock()
	var id string
	for wid, ws := range c.workers {
		if ws.pid == pid {
			id = wid
			break
		}
	}
	if id != "" {
		delete(c.workers, id)
	}
	job := c.current()
	c.mu.Unlock()
	if id == "" {
		return
	}
	c.loseWorker(job, id, "process exited")
}

// loseWorker releases a lost worker's leases and charges kill budgets.
func (c *Coordinator) loseWorker(job *activeJob, id, reason string) {
	c.cfg.Logf("sweepd: worker %s lost (%s)", id, reason)
	c.bus.Publish(obs.Event{Type: obs.WorkerLost, Detail: id + ": " + reason})
	if c.m != nil {
		c.m.workersLost.Inc()
	}
	if job != nil {
		c.publish(job.table.WorkerLost(id))
		c.journalBudgets(job)
		c.checkFinished(job)
	}
	c.syncGauges()
}

// scan is the expiry-and-liveness loop.
func (c *Coordinator) scan(ctx context.Context) {
	tick := c.cfg.Lease.TTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-c.cfg.WorkerTimeout)
		c.mu.Lock()
		var lost []string
		for id, ws := range c.workers {
			if ws.lastSeen.Before(cutoff) {
				lost = append(lost, id)
				delete(c.workers, id)
			}
		}
		job := c.current()
		c.mu.Unlock()
		sort.Strings(lost)
		for _, id := range lost {
			c.loseWorker(job, id, "heartbeat silence")
		}
		if job != nil {
			c.publish(job.table.ExpireLeases())
			c.journalBudgets(job)
			c.syncGauges()
			c.checkFinished(job)
		}
	}
}

// checkFinished finishes the job once every cell is terminal — unless
// it was cancelled, in which case the cancel path already sealed it.
func (c *Coordinator) checkFinished(job *activeJob) {
	if job == nil || !job.table.Finished() {
		return
	}
	c.mu.Lock()
	cancelled := job.state == jobCancelled
	c.mu.Unlock()
	if !cancelled {
		c.finishJob(job, false)
	}
}

// finishJob seals a job exactly once: close the rollup stream, write the
// deterministic artifacts plus the digest ledger and the job report,
// close the journal, record the terminal state durably, publish the
// final events, unblock waiters and promote the next queued job.  The
// state-journal record lands after the artifacts: a crash in between
// leaves the job "queued", so the restart re-activates it, resumes
// every cell instantly from the cell journal, and atomically rewrites
// the same bytes.
func (c *Coordinator) finishJob(job *activeJob, drained bool) {
	job.finish.Do(func() {
		job.intake.Lock() // let in-flight result batches land first
		defer job.intake.Unlock()
		counts := job.table.Counts()
		quar := job.table.Quarantined()
		rep := &JobReport{
			JobID:       job.id,
			Name:        job.spec.Name,
			Identity:    job.identity,
			Cells:       counts.Total,
			Done:        counts.Done,
			Resumed:     job.resumed,
			Degraded:    len(quar) > 0,
			Quarantined: quar,
			Stolen:      counts.Stolen,
			Expired:     counts.Expired,
			Drained:     drained,
		}
		if len(quar) > 0 {
			c.bus.Publish(obs.Event{Type: obs.DegradedRun,
				Detail: quarSummary(quar), Total: len(quar)})
		}
		if job.agg != nil {
			if err := job.agg.Close(); err != nil {
				c.cfg.Logf("sweepd: rollup stream close: %v", err)
			}
			if err := job.agg.WriteArtifacts(job.dir); err != nil {
				c.cfg.Logf("sweepd: artifacts: %v", err)
			}
			job.mu.Lock()
			dj, err := json.MarshalIndent(job.digests, "", "  ")
			job.mu.Unlock()
			if err == nil {
				if err := fsutil.WriteFileAtomic(filepath.Join(job.dir, DigestsFile), append(dj, '\n'), 0o644); err != nil {
					c.cfg.Logf("sweepd: digests: %v", err)
				}
			}
			if rj, err := json.MarshalIndent(rep, "", "  "); err == nil {
				if err := fsutil.WriteFileAtomic(filepath.Join(job.dir, ReportFile), append(rj, '\n'), 0o644); err != nil {
					c.cfg.Logf("sweepd: job report: %v", err)
				}
			}
		}
		if job.journal != nil {
			if err := job.journal.Close(); err != nil {
				c.cfg.Logf("sweepd: journal close: %v", err)
			}
		}
		c.mu.Lock()
		job.report = rep
		job.state = jobDone
		if c.active == job {
			c.active = nil
		}
		c.mu.Unlock()
		if err := c.state.Done(job.id, job.seq, job.spec, rep); err != nil {
			c.cfg.Logf("sweepd: state journal (done %s): %v", job.id, err)
		}
		c.cfg.Logf("sweepd: job %s finished: %d/%d done, %d quarantined, %d stolen, %d expired",
			job.id, rep.Done, rep.Cells, len(quar), rep.Stolen, rep.Expired)
		close(job.finished)
	})
	c.syncGauges()
	c.promote()
}

// quarSummary renders the quarantine list for the DegradedRun event.
func quarSummary(quar []QuarantinedCell) string {
	if len(quar) == 1 {
		return "1 cell quarantined: " + quar[0].Key
	}
	return fmt.Sprintf("%d cells quarantined (first: %s)", len(quar), quar[0].Key)
}

// Drain winds the service down: joins/leases start answering Drain, no
// queued job is promoted (queued jobs stay durably queued and resume
// on the next life), and once in-flight leases resolve (or ctx
// expires) the active job is sealed with whatever completed so a
// restart resumes the rest.
func (c *Coordinator) Drain(ctx context.Context) {
	c.mu.Lock()
	c.draining = true
	job := c.current()
	c.mu.Unlock()
	if job == nil {
		return
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-job.finished:
			return
		case <-ctx.Done():
			c.finishJob(job, true)
			return
		case <-t.C:
			if job.table.Counts().InFlight == 0 {
				c.finishJob(job, true)
				return
			}
		}
	}
}
