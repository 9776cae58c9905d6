// Tests for batched dispatch: suspect isolation and fair-share grants
// in the lease table, a heartbeat revoking one cell of a running batch,
// a worker stopping mid-batch, the stale single-cell report, and a
// fuzzed result-batch intake.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/units"
)

// TestSuspectIsolation: a k=8 holder dies on a poisoned cell again and
// again until the kill budget runs out.  Every death charges all eight
// cells the holder held, yet exactly the poisoned cell is quarantined
// and no innocent cell is charged more than one kill.
func TestSuspectIsolation(t *testing.T) {
	clk := newFakeClock()
	keys := testKeys(40)
	const poison = "cell-003"
	tb := NewTable(keys, LeaseConfig{TTL: time.Hour, KillBudget: 3, BackoffBase: time.Millisecond})
	tb.SetClock(clk.now)

	for gen := 0; !tb.Finished(); gen++ {
		if gen > 100 {
			t.Fatalf("table never finished: %+v", tb.Counts())
		}
		clk.advance(time.Minute) // clear every backoff gate
		w := fmt.Sprintf("w%d", gen)
		before := tb.BudgetSnapshot()
		leases, _ := tb.Acquire(w, 8, 0)
		suspects := 0
		died := false
		for _, l := range leases {
			if before[l.CellKey].Kills > 0 {
				suspects++
			}
			died = died || l.CellKey == poison
		}
		if suspects > 1 {
			t.Fatalf("grant %d holds %d cells that lost a holder before: %+v", gen, suspects, leases)
		}
		if died {
			// The worker reaches the poisoned cell and crashes holding
			// its whole batch, reported or not.
			tb.WorkerLost(w)
			continue
		}
		for _, l := range leases {
			tb.Complete(w, l.CellKey, true, "")
		}
	}
	quar := tb.Quarantined()
	if len(quar) != 1 || quar[0].Key != poison || quar[0].Kills != 3 {
		t.Fatalf("quarantined = %+v, want exactly %s with 3 kills", quar, poison)
	}
	for key, b := range tb.BudgetSnapshot() {
		if key != poison && b.Kills > 1 {
			t.Errorf("innocent cell %s charged %d kills", key, b.Kills)
		}
	}
	if c := tb.Counts(); c.Done != len(keys)-1 {
		t.Fatalf("counts = %+v, want every other cell done", c)
	}
}

// TestWorkerBatchHeartbeatCancel: a fake coordinator grants a batch of
// eight cells and names the first (running) and the last (queued)
// cancelled in its first heartbeat.  The worker aborts the one and
// skips the other, still runs and reports the six between them in one
// message, in grant order, with the exact bytes its journal holds, and
// never reports a cancelled cell.
func TestWorkerBatchHeartbeatCancel(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	victims := []string{cells[0].CheckpointKey(), cells[k-1].CheckpointKey()}
	ckptDir := t.TempDir()

	var mu sync.Mutex
	granted := false
	var firstBeat []string
	results := make(chan ResultRequest, 4)
	mux := http.NewServeMux()
	mux.HandleFunc(PathJoin, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JoinReply{JobID: spec.ID(), Job: &spec, CkptDir: ckptDir,
			LeaseTTLMs: 10000, HeartbeatMs: 1})
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if granted {
			writeJSON(w, http.StatusOK, LeaseReply{Drain: true})
			return
		}
		granted = true
		if req.Max != k {
			t.Errorf("lease request max = %d, want the default %d", req.Max, k)
		}
		var leases []Lease
		for i := 0; i < k; i++ {
			leases = append(leases, Lease{CellIndex: i, CellKey: cells[i].CheckpointKey(), Attempt: 1})
		}
		writeJSON(w, http.StatusOK, LeaseReply{Leases: leases})
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		mu.Lock()
		if firstBeat == nil {
			firstBeat = req.CellKeys
		}
		mu.Unlock()
		var reply HeartbeatReply
		for _, v := range victims {
			if slices.Contains(req.CellKeys, v) {
				reply.Cancelled = append(reply.Cancelled, v)
			}
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc(PathResult, func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !readJSON(w, r, &req) {
			return
		}
		results <- req
		writeJSON(w, http.StatusOK, ResultReply{Acks: make([]ResultAck, len(req.Results))})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorker(WorkerConfig{ID: "w0", Coordinator: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	close(results)
	var batches []ResultRequest
	for req := range results {
		batches = append(batches, req)
	}
	if len(batches) != 1 {
		t.Fatalf("worker sent %d result messages, want one for the batch", len(batches))
	}
	mu.Lock()
	if len(firstBeat) != k {
		t.Errorf("first heartbeat carried %d keys, want all %d held", len(firstBeat), k)
	}
	mu.Unlock()

	journal, err := ckpt.Open(ckptDir, ckpt.Manifest{Identity: spec.Identity(), RootSeed: spec.Seed}, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	got := batches[0]
	if got.JobID != spec.ID() || len(got.Results) != k-2 {
		t.Fatalf("batch = job %q with %d results, want %q with %d", got.JobID, len(got.Results), spec.ID(), k-2)
	}
	for i, r := range got.Results {
		if r.CellIndex != i+1 || r.CellKey != cells[i+1].CheckpointKey() || !r.OK {
			t.Fatalf("result %d = {%d %q ok=%v %q}, want cell %d OK in grant order", i, r.CellIndex, r.CellKey, r.OK, r.Error, i+1)
		}
		rec, ok := journal.Lookup(r.CellKey)
		if !ok || rec.Status != ckpt.StatusDone || !bytes.Equal(rec.Payload, r.Payload) {
			t.Fatalf("result %d payload differs from the journal's done record", i)
		}
	}
}

// TestResultWithoutBatchRefused: a body without results is what a
// pre-batching single-cell worker sends; it is refused with 400 rather
// than silently dropped.
func TestResultWithoutBatchRefused(t *testing.T) {
	s := startService(t, Config{})
	job, err := s.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		resp, err := http.Post(s.srv.URL+PathResult, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	stale := fmt.Sprintf(`{"worker_id":"old","job_id":%q,"cell_index":0,"cell_key":%q,"ok":true,"payload":"AAAA"}`,
		job.id, job.keys[0])
	if code := post(stale); code != http.StatusBadRequest {
		t.Fatalf("single-cell report answered %d, want 400", code)
	}
	if code := post(fmt.Sprintf(`{"worker_id":"w","job_id":%q,"results":[]}`, job.id)); code != http.StatusOK {
		t.Fatalf("empty batch answered %d, want 200", code)
	}
	if c := job.table.Counts(); c.Done != 0 {
		t.Fatalf("counts = %+v, want nothing committed", c)
	}
}

// FuzzResultBatch drives the result intake with arbitrary bodies:
// unknown and mismatched keys, a cell repeated within a batch, corrupt
// payloads, released keys, malformed JSON.  The coordinator must never panic, must
// answer every accepted body with one ack per cell, and across the
// whole run at most one result per cell may win.
func FuzzResultBatch(f *testing.F) {
	c, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	job, err := c.Submit(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	// A hand-built result keeps the setup cheap: each fuzz worker
	// process runs it under coverage instrumentation.
	payload, err := core.EncodeResult(&core.Result{Plan: "HHBB", Makespan: 1.5, Energy: 300,
		Device: map[string]units.Joules{"GPU0": 120, "CPU0": 180}, Efficiency: 2.5})
	if err != nil {
		f.Fatal(err)
	}
	batch := func(results ...CellResult) []byte {
		b, err := json.Marshal(ResultRequest{WorkerID: "w0", JobID: job.id, Results: results})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	ok := func(i int) CellResult {
		return CellResult{CellIndex: i, CellKey: job.keys[i], OK: true, Payload: payload}
	}
	f.Add(batch(ok(0)))
	f.Add(batch(ok(1), ok(1), ok(2)))
	f.Add(batch(CellResult{CellIndex: 3, CellKey: job.keys[4], OK: true, Payload: payload}))
	f.Add(batch(CellResult{CellIndex: len(job.keys), CellKey: "ghost", OK: true, Payload: payload}))
	f.Add(batch(CellResult{CellIndex: 5, CellKey: job.keys[5], OK: true, Payload: payload[:len(payload)/2]}))
	f.Add(batch(CellResult{CellIndex: 6, CellKey: job.keys[6], Error: "panic: boom"}, ok(6)))
	f.Add([]byte(`{"worker_id":"w0","job_id":"` + job.id + `","cell_index":0}`))
	f.Add([]byte(`{"worker_id":"w0","job_id":"` + job.id + `","released":["` + job.keys[7] + `","ghost"]}`))
	f.Add([]byte(`{"results":[{"cell_index":-1}]}`))
	f.Add([]byte(`not json`))

	wins := make(map[string]int)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		c.handleResult(rec, httptest.NewRequest(http.MethodPost, PathResult, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return
		}
		var req ResultRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("coordinator accepted a body that does not decode: %v", err)
		}
		var reply ResultReply
		if err := json.NewDecoder(rec.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Acks) != len(req.Results) {
			t.Fatalf("%d acks for %d results", len(reply.Acks), len(req.Results))
		}
		for i, a := range reply.Acks {
			if !a.First {
				continue
			}
			key := req.Results[i].CellKey
			if wins[key]++; wins[key] > 1 {
				t.Fatalf("cell %s won %d times", key, wins[key])
			}
		}
		if done := job.table.Counts().Done; done != len(wins) {
			t.Fatalf("table done %d != %d winning results", done, len(wins))
		}
	})
}

// TestFinishWaitsForInFlightResults: a result batch marks a cell done
// in the lease table before that cell's result reaches the surface and
// the digest ledger, and the job's finish check can run in between
// (from the expiry scanner or another worker's batch).  The finish
// must wait for the batch, so the artifacts hold every cell.
func TestFinishWaitsForInFlightResults(t *testing.T) {
	payload, err := core.EncodeResult(&core.Result{Plan: "HHBB", Makespan: 1.5, Energy: 300, Efficiency: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{AggDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	n := len(job.keys)
	for i := 0; i < n-1; i++ {
		job.table.Complete("w0", job.keys[i], true, "")
		c.acceptResult(job, i, res, payload, false)
	}

	// A batch in flight: its last cell is done in the table, its
	// result not yet accepted.
	job.intake.RLock()
	job.table.Complete("w0", job.keys[n-1], true, "")
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		c.checkFinished(job)
	}()
	select {
	case <-job.Done():
		t.Fatal("the job sealed its artifacts while a result batch was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	c.acceptResult(job, n-1, res, payload, false)
	job.intake.RUnlock()
	<-checked

	var digests map[string]string
	if err := json.Unmarshal(readArtifact(t, job, DigestsFile), &digests); err != nil {
		t.Fatal(err)
	}
	var surface struct{ Cells int }
	if err := json.Unmarshal(readArtifact(t, job, "surface.json"), &surface); err != nil {
		t.Fatal(err)
	}
	if len(digests) != n || surface.Cells != n {
		t.Fatalf("%s holds %d and surface.json %d of %d cells", DigestsFile, len(digests), surface.Cells, n)
	}
}

// TestFairShareGrant: with a fleet, a fresh grant is capped at
// ceil(pending / (2 × fleet)), so a job with fewer than max × fleet
// pending cells spreads over the fleet instead of piling onto whoever
// asks first, and grants shrink to one cell as the job drains.  A lone
// worker still gets the full batch, and a re-grant hands back every
// cell the worker holds even once its share has shrunk.
func TestFairShareGrant(t *testing.T) {
	tb := NewTable(testKeys(40), LeaseConfig{TTL: time.Hour})
	tb.SetFleet(4)
	var sizes []int
	for i := 0; ; i++ {
		l, _ := tb.Acquire(fmt.Sprintf("w%d", i), 8, 0)
		if len(l) == 0 {
			break
		}
		sizes = append(sizes, len(l))
	}
	want := []int{5, 5, 4, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1}
	if !slices.Equal(sizes, want) {
		t.Fatalf("grant sizes = %v, want %v", sizes, want)
	}
	tb.SetFleet(8)
	if l, _ := tb.Acquire("w0", 8, 0); len(l) != 5 || !l[0].Regrant {
		t.Fatalf("re-grant = %+v, want all five held cells back", l)
	}

	lone := NewTable(testKeys(20), LeaseConfig{TTL: time.Hour})
	lone.SetFleet(1)
	if l, _ := lone.Acquire("w0", 8, 0); len(l) != 8 {
		t.Fatalf("lone worker granted %d cells, want the full batch of 8", len(l))
	}
	wide := NewTable(testKeys(80), LeaseConfig{TTL: time.Hour})
	wide.SetFleet(4)
	if l, _ := wide.Acquire("w0", 8, 0); len(l) != 8 {
		t.Fatalf("share of 80 over 4 granted %d cells, want max 8", len(l))
	}
}

// TestLeaseShareFollowsFleet: the coordinator sizes the fair share by
// the workers registered with it, and by at least the fleet it was told
// it supervises before those workers have joined.
func TestLeaseShareFollowsFleet(t *testing.T) {
	const fleet = 4
	for _, tc := range []struct {
		name   string
		floor  int // Config.Workers
		joined int
	}{
		{"registered", 0, fleet},
		{"supervised", fleet, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startService(t, Config{Workers: tc.floor})
			job, err := s.coord.Submit(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			post := func(path string, req, reply any) {
				t.Helper()
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(s.srv.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				decodeBody(t, resp, reply)
			}
			for i := 0; i < tc.joined; i++ {
				var jr JoinReply
				post(PathJoin, JoinRequest{WorkerID: fmt.Sprintf("w%d", i)}, &jr)
				if jr.JobID != job.id {
					t.Fatalf("join reply job %q, want %q", jr.JobID, job.id)
				}
			}
			var lr LeaseReply
			post(PathLease, LeaseRequest{WorkerID: "w0", JobID: job.id, Max: 8}, &lr)
			want := min(8, (len(job.keys)+2*fleet-1)/(2*fleet))
			if len(lr.Leases) != want {
				t.Fatalf("granted %d of %d cells with a fleet of %d, want %d", len(lr.Leases), len(job.keys), fleet, want)
			}
		})
	}
}

// TestBatchExpiryRetracted: a k=8 holder whose heartbeats fail for one
// TTL is charged a kill on all eight cells, and all eight are retracted
// the moment it is heard from again.
func TestBatchExpiryRetracted(t *testing.T) {
	clk := newFakeClock()
	keys := testKeys(8)
	tb := NewTable(keys, LeaseConfig{TTL: time.Second, BackoffBase: time.Millisecond})
	tb.SetClock(clk.now)
	tb.Acquire("w0", 8, 0)
	clk.advance(2 * time.Second)
	tb.ExpireLeases()
	if n := len(tb.BudgetSnapshot()); n != 8 {
		t.Fatalf("%d cells charged after the expiry, want 8", n)
	}
	tb.Heartbeat("w0", keys)
	if b := tb.BudgetSnapshot(); len(b) != 0 {
		t.Fatalf("kills left after the holder proved alive: %+v", b)
	}
}

// TestWorkerStopMidBatchReleases: a worker stopped in the middle of a
// batch reports what it finished and releases the rest, so no lease is
// left to expire and no cell is charged a kill — not at the stop, not
// after the TTL, not when the coordinator declares the worker lost.
func TestWorkerStopMidBatchReleases(t *testing.T) {
	const ttl = 200 * time.Millisecond
	c, err := New(Config{Lease: LeaseConfig{TTL: ttl}, HeartbeatEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	c.Start(cctx)
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	var once sync.Once
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHeartbeat {
			once.Do(stop) // the worker is mid-batch: stop it
		}
		h.ServeHTTP(w, r)
	}))
	defer func() { srv.Close(); ccancel(); c.Close() }()
	job, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{ID: "w0", Coordinator: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(wctx); err != context.Canceled {
		t.Fatalf("worker returned %v, want context.Canceled", err)
	}
	counts := job.table.Counts()
	if counts.Leases != 0 {
		t.Fatalf("counts = %+v, want every lease reported or released", counts)
	}
	if counts.Done >= 8 {
		t.Fatalf("counts = %+v, want the worker stopped inside its first batch", counts)
	}
	time.Sleep(5 * ttl) // past the TTL and the worker timeout (2 × TTL)
	if b := job.table.BudgetSnapshot(); len(b) != 0 {
		t.Fatalf("cells charged after a graceful stop: %+v", b)
	}
	if counts := job.table.Counts(); counts.Expired != 0 || counts.Pending != counts.Total-counts.Done {
		t.Fatalf("counts = %+v, want no expiry and every unfinished cell pending", counts)
	}
}
