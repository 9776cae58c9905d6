// Tests for the multi-tenant job queue, cancellation, the durable
// coordinator state journal, and wire-level protocol idempotency under
// the seeded fault injector.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// seededSpec varies the seed so each job has a distinct identity.
func seededSpec(seed int64) JobSpec {
	s := testSpec()
	s.Seed = seed
	return s
}

// httpDelete issues DELETE against the service and decodes the reply.
func httpDelete(t *testing.T, url string, v any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		jsonDecode(t, resp, v)
	}
	return resp.StatusCode
}

func jsonDecode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBackpressureAndPriority: the queue is bounded (429 +
// Retry-After), priority jumps the FIFO line, and readiness reflects
// admission.
func TestQueueBackpressureAndPriority(t *testing.T) {
	s := startService(t, Config{AggDir: t.TempDir(), MaxQueue: 2})

	j1, err := s.coord.Submit(seededSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.coord.Submit(seededSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	pri := seededSpec(3)
	pri.Priority = 5
	j3, err := s.coord.Submit(pri)
	if err != nil {
		t.Fatal(err)
	}

	// No workers: j1 is active, j2 and j3 queue — the high-priority j3
	// ahead of the earlier j2.
	s.coord.mu.Lock()
	active := s.coord.active
	pos2, pos3 := s.coord.queuePositionLocked(j2), s.coord.queuePositionLocked(j3)
	s.coord.mu.Unlock()
	if active != j1 {
		t.Fatalf("active = %v, want j1", active)
	}
	if pos3 != 1 || pos2 != 2 {
		t.Fatalf("queue positions: j3=%d j2=%d, want 1 and 2", pos3, pos2)
	}

	// The queue is full: in-process submits fail with the 429 admission
	// error, wire submits carry Retry-After.
	_, err = s.coord.Submit(seededSpec(4))
	var ae *admitError
	if !errors.As(err, &ae) || ae.code != http.StatusTooManyRequests || ae.retryAfter != retryAfterSeconds {
		t.Fatalf("full-queue submit err = %v, want 429 admitError with Retry-After", err)
	}
	body, _ := jsonMarshal(seededSpec(4))
	resp, err := http.Post(s.srv.URL+PathSubmit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("wire submit: status %d, Retry-After %q; want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Liveness stays green while readiness answers 503.
	resp, err = http.Get(s.srv.URL + PathLive)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz/live = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(s.srv.URL + PathReady)
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyReply
	func() { defer resp.Body.Close(); jsonDecode(t, resp, &ready) }()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Reason != "queue full" {
		t.Fatalf("/healthz/ready = %d %+v, want 503 queue full", resp.StatusCode, ready)
	}

	// /v1/jobs lists everything in submission order with queue state.
	var jobs JobsReply
	getJSON(t, s.srv.URL+PathJobs, &jobs)
	if len(jobs.Jobs) != 3 || jobs.Jobs[0].State != "active" ||
		jobs.Jobs[1].JobID != j2.id || jobs.Jobs[1].Position != 2 ||
		jobs.Jobs[2].JobID != j3.id || jobs.Jobs[2].Position != 1 {
		t.Fatalf("/v1/jobs = %+v", jobs.Jobs)
	}
}

// TestTenantQuotaAndDrainAdmission: per-tenant quotas bound queued +
// active jobs of a named tenant (untenanted specs are exempt), and a
// draining coordinator answers 503.
func TestTenantQuotaAndDrainAdmission(t *testing.T) {
	s := startService(t, Config{AggDir: t.TempDir(), TenantQuota: 1})

	acme := seededSpec(10)
	acme.Tenant = "acme"
	if _, err := s.coord.Submit(acme); err != nil {
		t.Fatal(err)
	}
	acme2 := seededSpec(11)
	acme2.Tenant = "acme"
	_, err := s.coord.Submit(acme2)
	var ae *admitError
	if !errors.As(err, &ae) || ae.code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit err = %v, want 429", err)
	}
	globex := seededSpec(12)
	globex.Tenant = "globex"
	if _, err := s.coord.Submit(globex); err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	if _, err := s.coord.Submit(seededSpec(13)); err != nil {
		t.Fatalf("untenanted spec hit a quota: %v", err)
	}

	// Draining: admission closes entirely.
	s.coord.mu.Lock()
	s.coord.draining = true
	s.coord.mu.Unlock()
	_, err = s.coord.Submit(seededSpec(14))
	if !errors.As(err, &ae) || ae.code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit err = %v, want 503", err)
	}
}

// TestSubmitIdempotencyKey: a replayed submission with the same
// idempotency key answers with the original job even when the spec
// drifted, so a client retrying a lost ack cannot enqueue twice.
func TestSubmitIdempotencyKey(t *testing.T) {
	s := startService(t, Config{AggDir: t.TempDir()})

	spec := seededSpec(1)
	spec.IdempotencyKey = "run-7"
	j1, dup, err := s.coord.submit(spec)
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	// Same key, different identity (the client rebuilt the spec with a
	// new seed before retrying): still the original job.
	drifted := seededSpec(2)
	drifted.IdempotencyKey = "run-7"
	j2, dup, err := s.coord.submit(drifted)
	if err != nil || !dup || j2 != j1 {
		t.Fatalf("replay: job=%v dup=%v err=%v, want the original job", j2.id, dup, err)
	}
	// Same identity without the key is also a duplicate (identity dedup).
	j3, dup, err := s.coord.submit(seededSpec(1))
	if err != nil || !dup || j3 != j1 {
		t.Fatalf("identity replay: dup=%v err=%v", dup, err)
	}
	// A genuinely new spec with a new key is new work.
	fresh := seededSpec(2)
	fresh.IdempotencyKey = "run-8"
	j4, dup, err := s.coord.submit(fresh)
	if err != nil || dup || j4 == j1 {
		t.Fatalf("fresh submit: dup=%v err=%v", dup, err)
	}
}

// TestCancelLifecycle drives DELETE /v1/job/{id} through every state:
// queued (leaves without touching the filesystem), active (leases
// revoked, no artifacts, no failure charges), cancelled (idempotent),
// done (409), unknown (404) — and shows the fleet moves on to the next
// job cleanly.
func TestCancelLifecycle(t *testing.T) {
	s := startService(t, Config{
		AggDir:        t.TempDir(),
		CheckpointDir: t.TempDir(),
		Lease: LeaseConfig{
			TTL:         400 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond,
		},
		WorkerTimeout: 800 * time.Millisecond,
	})
	sub := s.coord.Bus().Subscribe(4096)
	defer sub.Close()

	jobA, err := s.coord.Submit(seededSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := s.coord.Submit(seededSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: it leaves without an artifact directory or
	// a cell journal ever existing.
	var cr CancelReply
	if code := httpDelete(t, s.srv.URL+PathJobPrefix+jobB.id, &cr); code != http.StatusOK || !cr.Cancelled {
		t.Fatalf("queued cancel: code=%d reply=%+v", code, cr)
	}
	if jobB.dir != "" || jobB.ckptDir != "" {
		t.Fatalf("queued cancel touched the filesystem: dir=%q ckpt=%q", jobB.dir, jobB.ckptDir)
	}
	select {
	case <-jobB.Done():
	default:
		t.Fatal("cancelled job's Done channel still open")
	}
	if jobB.Report() != nil {
		t.Fatal("cancelled job produced a report")
	}
	// Idempotent replay.
	if code := httpDelete(t, s.srv.URL+PathJobPrefix+jobB.id, &cr); code != http.StatusOK || !cr.AlreadyCancelled {
		t.Fatalf("double cancel: code=%d reply=%+v", code, cr)
	}
	// Unknown job.
	if code := httpDelete(t, s.srv.URL+PathJobPrefix+"deadbeef0000", nil); code != http.StatusNotFound {
		t.Fatalf("unknown cancel code = %d, want 404", code)
	}

	// Let a worker get demonstrably into job A, then cancel it mid-flight.
	startWorker(t, s, "w0", nil)
	finished := 0
	for finished < 2 {
		for _, ev := range sub.Drain() {
			if ev.Type == obs.CellFinished {
				finished++
			}
		}
		select {
		case <-sub.Wait():
		case <-jobA.Done():
			t.Fatal("job A finished before the cancel could land")
		}
	}
	if code := httpDelete(t, s.srv.URL+PathJobPrefix+jobA.id, &cr); code != http.StatusOK || !cr.Cancelled {
		t.Fatalf("active cancel: code=%d reply=%+v", code, cr)
	}
	waitDone(t, jobA, 10*time.Second)
	if jobA.Report() != nil {
		t.Fatal("cancelled active job produced a report")
	}
	if _, err := os.Stat(filepath.Join(jobA.dir, ReportFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cancelled job wrote %s (err=%v)", ReportFile, err)
	}
	if _, err := os.Stat(filepath.Join(jobA.dir, "surface.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("cancelled job wrote surface.json")
	}

	// The worker learns via heartbeat, abandons A's cells without
	// reporting them, and drains job C normally — cancellation charged
	// no failure budget anywhere.
	jobC, err := s.coord.Submit(seededSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jobC, 90*time.Second)
	rep := jobC.Report()
	if rep == nil || rep.Done != len(jobC.cells) || rep.Degraded {
		t.Fatalf("post-cancel job report = %+v", rep)
	}
	// Cancelling a finished job conflicts.
	if code := httpDelete(t, s.srv.URL+PathJobPrefix+jobC.id, &cr); code != http.StatusConflict {
		t.Fatalf("done cancel code = %d, want 409", code)
	}
	// A cancelled identity is re-submittable (the tombstone does not
	// block the slot forever).
	resub, dup, err := s.coord.submit(seededSpec(2))
	if err != nil || dup || resub == jobB {
		t.Fatalf("re-submit after cancel: dup=%v err=%v", dup, err)
	}
}

// TestCoordinatorCrashRecovery is the tentpole gate in-process: a
// coordinator with two accepted jobs and wire faults active dies
// crash-shaped (journals released unsealed, nothing flushed beyond
// what was durably committed), a fresh coordinator recovers both from
// the state journal, and the final artifacts are byte-identical to
// uninterrupted runs.
func TestCoordinatorCrashRecovery(t *testing.T) {
	specA, specB := seededSpec(11), seededSpec(22)

	// Uninterrupted references, one service per job.
	refArtifacts := func(spec JobSpec) (surface, digests []byte) {
		ref := startService(t, Config{AggDir: t.TempDir()})
		job, err := ref.coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		startWorker(t, ref, "solo", nil)
		waitDone(t, job, 90*time.Second)
		return readArtifact(t, job, "surface.json"), readArtifact(t, job, DigestsFile)
	}
	surfA, digA := refArtifacts(specA)
	surfB, digB := refArtifacts(specB)

	// Life 1: both jobs accepted, worker dispatching through a faulty
	// wire, killed mid-sweep.
	ckptDir, aggDir := t.TempDir(), t.TempDir()
	cfg := Config{
		AggDir:        aggDir,
		CheckpointDir: ckptDir,
		Lease: LeaseConfig{
			TTL:         500 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond,
		},
		WorkerTimeout: time.Second,
	}
	s1 := startService(t, cfg)
	sub := s1.coord.Bus().Subscribe(4096)
	jobA1, err := s1.coord.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.coord.Submit(specB); err != nil {
		t.Fatal(err)
	}
	netSpec := faults.NetSpec{Drop: 0.05, DropReply: 0.05, Dup: 0.1, Err: 0.05}
	w, err := NewWorker(WorkerConfig{
		ID: "w0", Coordinator: s1.srv.URL,
		Client: &http.Client{Transport: faults.NewNetInjector(netSpec, DeriveNetSeed(1, "w0"), nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	go w.Run(wctx)
	finished := 0
	for finished < 3 {
		for _, ev := range sub.Drain() {
			if ev.Type == obs.CellFinished {
				finished++
			}
		}
		select {
		case <-sub.Wait():
		case <-jobA1.Done():
			t.Fatal("job A finished before the crash could land")
		}
	}
	sub.Close()
	stopWorker()

	// A second coordinator cannot share the live state directory: the
	// flock is the single-writer guard.
	if _, err := New(cfg); err == nil {
		t.Fatal("two coordinators opened the same state directory")
	}

	// kill -9 stand-in: release journals without sealing anything.
	if err := s1.coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: recover, redispatch, finish.
	s2 := startService(t, cfg)
	n, err := s2.coord.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d job(s), want 2", n)
	}
	s2.coord.mu.Lock()
	jobA2, jobB2 := s2.coord.jobs[specA.ID()], s2.coord.jobs[specB.ID()]
	s2.coord.mu.Unlock()
	if jobA2 == nil || jobB2 == nil {
		t.Fatal("recovered jobs missing from the registry")
	}
	if jobA2.resumed < finished {
		t.Fatalf("job A resumed %d cell(s), want at least the %d committed before the crash", jobA2.resumed, finished)
	}
	// A submit replay across the restart still dedups.
	if _, dup, err := s2.coord.submit(specA); err != nil || !dup {
		t.Fatalf("post-restart replay: dup=%v err=%v", dup, err)
	}
	startWorker(t, s2, "w1", nil)
	waitDone(t, jobA2, 90*time.Second)
	waitDone(t, jobB2, 90*time.Second)

	repA, repB := jobA2.Report(), jobB2.Report()
	if repA == nil || repA.Done != len(jobA2.cells) || repA.Degraded {
		t.Fatalf("recovered job A report = %+v", repA)
	}
	if repB == nil || repB.Done != len(jobB2.cells) || repB.Degraded {
		t.Fatalf("recovered job B report = %+v", repB)
	}
	for _, c := range []struct {
		name      string
		job       *activeJob
		surf, dig []byte
	}{
		{"A", jobA2, surfA, digA},
		{"B", jobB2, surfB, digB},
	} {
		if got := readArtifact(t, c.job, "surface.json"); !bytes.Equal(got, c.surf) {
			t.Errorf("job %s surface.json differs from the uninterrupted run (%d vs %d bytes)", c.name, len(got), len(c.surf))
		}
		if got := readArtifact(t, c.job, DigestsFile); !bytes.Equal(got, c.dig) {
			t.Errorf("job %s %s differs from the uninterrupted run", c.name, DigestsFile)
		}
	}
}

// TestProtocolIdempotencyUnderWireFaults runs a whole sweep with every
// worker behind an aggressive seeded fault injector — drops, dropped
// replies, duplicated deliveries, 503 bursts — and asserts the
// protocol's invariants held: every cell done exactly once, nothing
// quarantined by fault-layer noise, artifacts byte-identical to a
// clean run.
func TestProtocolIdempotencyUnderWireFaults(t *testing.T) {
	ref := startService(t, Config{AggDir: t.TempDir()})
	refJob, err := ref.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, ref, "solo", nil)
	waitDone(t, refJob, 90*time.Second)

	s := startService(t, Config{
		AggDir:        t.TempDir(),
		CheckpointDir: t.TempDir(),
		Lease: LeaseConfig{
			TTL:         time.Second,
			BackoffBase: 10 * time.Millisecond,
		},
		WorkerTimeout: 5 * time.Second,
	})
	job, err := s.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	netSpec := faults.NetSpec{Drop: 0.08, DropReply: 0.08, Dup: 0.12, Err: 0.08}
	var injectors []*faults.NetInjector
	// With k-cell batches a job takes only a few result messages, too
	// few for the random schedule to be sure of duplicating one, so
	// every result batch that gets through is also delivered twice.
	var resultDups []*faults.NetInjector
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i)
		dup := faults.NewNetInjector(faults.NetSpec{Dup: 1}, DeriveNetSeed(8, id), nil)
		resultDups = append(resultDups, dup)
		inj := faults.NewNetInjector(netSpec, DeriveNetSeed(7, id), onPath{PathResult, dup, http.DefaultTransport})
		injectors = append(injectors, inj)
		w, err := NewWorker(WorkerConfig{
			ID: id, Coordinator: s.srv.URL,
			Client: &http.Client{Transport: inj},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go w.Run(ctx)
	}
	waitDone(t, job, 90*time.Second)

	rep := job.Report()
	if rep == nil || rep.Done != len(job.cells) || rep.Degraded {
		t.Fatalf("report under wire faults = %+v", rep)
	}
	faulted := 0
	for _, inj := range injectors {
		st := inj.Stats()
		faulted += st.Dropped + st.RepliesDropped + st.Duplicated + st.Errored
	}
	if faulted == 0 {
		t.Fatal("fault injector never fired; the run proved nothing")
	}
	dups := 0
	for _, inj := range resultDups {
		dups += inj.Stats().Duplicated
	}
	if dups == 0 {
		t.Fatal("the injector never duplicated a result batch; first-result-wins per cell went untested")
	}
	// First result wins per cell, so the coordinator's journal commits
	// each cell exactly once however often its batch was delivered.
	data, err := os.ReadFile(filepath.Join(job.CheckpointDirUsed(), "journal-coord.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	doneRecords := make(map[string]int)
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r struct{ Key, Status string }
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("coordinator journal line %q: %v", line, err)
		}
		if r.Status == "done" {
			doneRecords[r.Key]++
		}
	}
	for _, key := range job.keys {
		if doneRecords[key] != 1 {
			t.Errorf("coordinator journal holds %d done records for %s, want 1", doneRecords[key], key)
		}
	}
	if len(doneRecords) != len(job.keys) {
		t.Errorf("coordinator journal holds done records for %d keys, want %d", len(doneRecords), len(job.keys))
	}
	for _, name := range []string{"surface.json", DigestsFile} {
		b1, b2 := readArtifact(t, refJob, name), readArtifact(t, job, name)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s differs between clean and faulty-wire runs", name)
		}
	}
}

// onPath sends one path's requests through an extra transport and
// every other request straight to base.
type onPath struct {
	path     string
	rt, base http.RoundTripper
}

func (o onPath) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == o.path {
		return o.rt.RoundTrip(req)
	}
	return o.base.RoundTrip(req)
}
