package sweepd

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
)

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, v)
}

// testSpec is the reduced grid every service test runs: one platform,
// heavily scaled down — a few dozen fast cells.
func testSpec() JobSpec {
	return JobSpec{Experiment: "grid", Platform: "24-Intel-2-V100", Scale: 2, Seed: 7}
}

// service is one in-process coordinator + HTTP server.
type service struct {
	coord  *Coordinator
	srv    *httptest.Server
	cancel context.CancelFunc
}

func startService(t *testing.T, cfg Config) *service {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	srv := httptest.NewServer(c.Handler())
	// Close releases the state journal's flock so a later coordinator in
	// the same test (a simulated restart) can reopen the same directory.
	t.Cleanup(func() { srv.Close(); cancel(); c.Close() })
	return &service{coord: c, srv: srv, cancel: cancel}
}

// startWorker runs one in-process worker; returns its stop function.
func startWorker(t *testing.T, s *service, id string, crash func(string)) (stop context.CancelFunc, done <-chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{ID: id, Coordinator: s.srv.URL, CrashFn: crash})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() { ch <- w.Run(ctx) }()
	t.Cleanup(cancel)
	return cancel, ch
}

func waitDone(t *testing.T, job *activeJob, timeout time.Duration) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(timeout):
		t.Fatalf("job did not finish within %v: %+v", timeout, job.table.Counts())
	}
}

func readArtifact(t *testing.T, job *activeJob, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(job.dir, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

// TestServiceSerialRun: one worker drains the whole job and the
// deterministic artifacts appear.
func TestServiceSerialRun(t *testing.T) {
	s := startService(t, Config{AggDir: t.TempDir()})
	job, err := s.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, s, "w0", nil)
	waitDone(t, job, 90*time.Second)

	rep := job.Report()
	if rep == nil || rep.Done != len(job.cells) || rep.Degraded {
		t.Fatalf("report = %+v", rep)
	}
	for _, name := range []string{"surface.json", DigestsFile, ReportFile} {
		if b := readArtifact(t, job, name); len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestServiceChaosDigestIdentity is the chaos gate in-process: three
// workers, one killed mid-sweep; the final surface.json and the
// core.Digest ledger are byte-identical to a one-worker run.
func TestServiceChaosDigestIdentity(t *testing.T) {
	// Baseline: a single worker, default lease config.
	base := startService(t, Config{AggDir: t.TempDir()})
	baseJob, err := base.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, base, "solo", nil)
	waitDone(t, baseJob, 90*time.Second)

	// Chaos: three workers, aggressive lease timings, one worker killed
	// after a few cells complete (it just vanishes — no goodbye, leases
	// released only by heartbeat silence and expiry).
	chaos := startService(t, Config{
		AggDir:        t.TempDir(),
		CheckpointDir: t.TempDir(),
		Lease: LeaseConfig{
			TTL:         300 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond,
			StealAfter:  500 * time.Millisecond,
		},
		WorkerTimeout: 600 * time.Millisecond,
	})
	sub := chaos.coord.Bus().Subscribe(4096)
	defer sub.Close()
	chaosJob, err := chaos.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	stopVictim, _ := startWorker(t, chaos, "victim", nil)
	startWorker(t, chaos, "w1", nil)
	startWorker(t, chaos, "w2", nil)

	// Kill the victim once the sweep is demonstrably in flight.
	go func() {
		finished := 0
		for {
			for _, ev := range sub.Drain() {
				if ev.Type == obs.CellFinished {
					finished++
				}
			}
			if finished >= 3 {
				stopVictim()
				return
			}
			select {
			case <-sub.Wait():
			case <-chaosJob.Done():
				return
			}
		}
	}()
	waitDone(t, chaosJob, 90*time.Second)

	rep := chaosJob.Report()
	if rep == nil || rep.Done != len(chaosJob.cells) || rep.Degraded {
		t.Fatalf("chaos report = %+v", rep)
	}
	for _, name := range []string{"surface.json", DigestsFile} {
		b1, b2 := readArtifact(t, baseJob, name), readArtifact(t, chaosJob, name)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s differs between serial and chaos runs (%d vs %d bytes)", name, len(b1), len(b2))
		}
	}
}

// TestServicePoisonQuarantine: a cell that crashes every worker that
// leases it is quarantined after KillBudget losses; the rest of the
// sweep completes and reports degraded.
func TestServicePoisonQuarantine(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	spec.Poison = cells[0].CheckpointKey()

	s := startService(t, Config{
		AggDir: t.TempDir(),
		Lease: LeaseConfig{
			TTL:         200 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond,
			KillBudget:  3,
		},
		WorkerTimeout: 400 * time.Millisecond,
	})
	job, err := s.coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// A self-respawning fleet of three: a worker that leases the poisoned
	// cell "dies" (its crash hook cancels it in-process) and the
	// supervisor-equivalent below spawns a replacement with a fresh id.
	var kills atomic.Int32
	var wg sync.WaitGroup
	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	var spawn func(slot, gen int)
	spawn = func(slot, gen int) {
		id := fmt.Sprintf("w%d.%d", slot, gen)
		var cancel context.CancelFunc
		crash := func(string) {
			kills.Add(1)
			cancel()
		}
		w, err := NewWorker(WorkerConfig{ID: id, Coordinator: s.srv.URL, CrashFn: crash})
		if err != nil {
			t.Error(err)
			return
		}
		var ctx context.Context
		ctx, cancel = context.WithCancel(fleetCtx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			err := w.Run(ctx)
			if errors.Is(err, ErrPoisoned) && fleetCtx.Err() == nil {
				spawn(slot, gen+1)
			}
		}()
	}
	for slot := 0; slot < 3; slot++ {
		spawn(slot, 0)
	}
	waitDone(t, job, 90*time.Second)
	stopFleet()

	rep := job.Report()
	if rep == nil || !rep.Degraded {
		t.Fatalf("report = %+v, want degraded", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != spec.Poison {
		t.Fatalf("quarantined = %+v, want exactly %q", rep.Quarantined, spec.Poison)
	}
	if rep.Done != len(cells)-1 {
		t.Fatalf("done = %d, want %d (all but the poisoned cell)", rep.Done, len(cells)-1)
	}
	if got := int(kills.Load()); got > 3 {
		t.Fatalf("poisoned cell killed %d workers, budget is 3", got)
	}
	wg.Wait()
}

// TestServiceResumeAfterRestart: drain a coordinator mid-sweep, start a
// fresh one over the same checkpoint directory, and the final artifacts
// are byte-identical to an uninterrupted run — completed cells are
// restored, not re-executed.
func TestServiceResumeAfterRestart(t *testing.T) {
	// Uninterrupted reference.
	ref := startService(t, Config{AggDir: t.TempDir()})
	refJob, err := ref.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, ref, "solo", nil)
	waitDone(t, refJob, 90*time.Second)

	// Pass 1: run a few cells, then drain.
	ckpt := t.TempDir()
	s1 := startService(t, Config{AggDir: t.TempDir(), CheckpointDir: ckpt,
		Lease: LeaseConfig{TTL: time.Second, BackoffBase: 10 * time.Millisecond}})
	sub := s1.coord.Bus().Subscribe(4096)
	job1, err := s1.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, s1, "w0", nil)
	finished := 0
	for finished < 3 {
		for _, ev := range sub.Drain() {
			if ev.Type == obs.CellFinished {
				finished++
			}
		}
		select {
		case <-sub.Wait():
		case <-job1.Done():
			t.Fatal("job finished before the drain could interrupt it")
		}
	}
	sub.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.coord.Drain(drainCtx)
	cancel()
	rep1 := job1.Report()
	if rep1 == nil || !rep1.Drained {
		t.Fatalf("pass-1 report = %+v, want drained", rep1)
	}
	if rep1.Done == 0 || rep1.Done == len(job1.cells) {
		t.Fatalf("pass-1 done = %d of %d, want a strict partial", rep1.Done, len(job1.cells))
	}

	// Release the drained coordinator's state-journal flock so the
	// replacement can open the same directory (a real restart gets this
	// for free when the process exits).
	if err := s1.coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Pass 2: a fresh coordinator over the same checkpoint directory
	// resumes the committed cells and finishes the rest.
	s2 := startService(t, Config{AggDir: t.TempDir(), CheckpointDir: ckpt})
	job2, err := s2.coord.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job2.resumed < rep1.Done {
		t.Fatalf("resumed %d cells, want at least the %d pass 1 committed", job2.resumed, rep1.Done)
	}
	startWorker(t, s2, "w1", nil)
	waitDone(t, job2, 90*time.Second)

	rep2 := job2.Report()
	if rep2 == nil || rep2.Done != len(job2.cells) || rep2.Resumed != job2.resumed {
		t.Fatalf("pass-2 report = %+v", rep2)
	}
	for _, name := range []string{"surface.json", DigestsFile} {
		b1, b2 := readArtifact(t, refJob, name), readArtifact(t, job2, name)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s differs between uninterrupted and resumed runs", name)
		}
	}
}

// TestServiceHTTPSurface: submit over the wire, then check /healthz,
// /v1/job/{id} and /v1/state answer with coherent documents.
func TestServiceHTTPSurface(t *testing.T) {
	s := startService(t, Config{AggDir: t.TempDir()})

	spec := testSpec()
	body, _ := jsonMarshal(spec)
	resp, err := http.Post(s.srv.URL+PathSubmit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitReply
	decodeBody(t, resp, &sub)
	if sub.JobID != spec.ID() || sub.Cells == 0 {
		t.Fatalf("submit reply = %+v", sub)
	}
	// A second submit of the same spec is an idempotent duplicate: same
	// job id back, nothing enqueued twice.
	resp, err = http.Post(s.srv.URL+PathSubmit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dup SubmitReply
	decodeBody(t, resp, &dup)
	if !dup.Duplicate || dup.JobID != sub.JobID {
		t.Fatalf("second submit reply = %+v, want duplicate of %s", dup, sub.JobID)
	}

	var hz HealthzReply
	getJSON(t, s.srv.URL+PathHealthz, &hz)
	if hz.Status != "ok" || hz.JobID != spec.ID() {
		t.Fatalf("healthz = %+v", hz)
	}

	startWorker(t, s, "w0", nil)
	s.coord.mu.Lock()
	job := s.coord.active
	s.coord.mu.Unlock()
	waitDone(t, job, 90*time.Second)

	var st JobStatus
	getJSON(t, s.srv.URL+PathJobPrefix+sub.JobID, &st)
	if !st.Finished || st.Report == nil || st.Counts.Done != sub.Cells {
		t.Fatalf("job status = %+v", st)
	}
	var state StateReply
	getJSON(t, s.srv.URL+PathState, &state)
	if len(state.Workers) != 1 || state.Workers[0].ID != "w0" || state.Workers[0].CellsServed == 0 {
		t.Fatalf("state workers = %+v", state.Workers)
	}
}

// TestResumeLogsUndecodableCells: journalled cells whose payloads the
// result codec does not read (a gob journal from before the codec) are
// counted in one log line for the job and re-run, not restored.
func TestResumeLogsUndecodableCells(t *testing.T) {
	spec := testSpec().withDefaults()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	j, err := ckpt.Open(filepath.Join(root, spec.Name+"-"+spec.ID()),
		ckpt.Manifest{Identity: spec.Identity(), RootSeed: spec.Seed}, "w0")
	if err != nil {
		t.Fatal(err)
	}
	const stale = 3
	for _, cell := range cells[:stale] {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&core.Result{Plan: "HH", Makespan: 1}); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(ckpt.Record{Key: cell.CheckpointKey(), Status: ckpt.StatusDone, Payload: buf.Bytes()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var undecodable []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "did not decode") {
			mu.Lock()
			undecodable = append(undecodable, line)
			mu.Unlock()
		}
	}
	s := startService(t, Config{CheckpointDir: root, Logf: logf})
	job, err := s.coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, s, "w1", nil)
	waitDone(t, job, 90*time.Second)

	if rep := job.Report(); rep == nil || rep.Done != len(cells) || rep.Resumed != 0 {
		t.Fatalf("report = %+v, want all %d cells run and none resumed", rep, len(cells))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(undecodable) != 1 || !strings.Contains(undecodable[0], fmt.Sprintf(": %d journalled cell(s)", stale)) {
		t.Fatalf("undecodable-cell log lines = %q, want one counting %d cells", undecodable, stale)
	}
}

// TestResumeOlderWorkerJournal: workers no longer journal, but a job
// directory a worker of an earlier version journalled into still
// resumes that worker's cells.
func TestResumeOlderWorkerJournal(t *testing.T) {
	spec := testSpec().withDefaults()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	j, err := ckpt.Open(filepath.Join(root, spec.Name+"-"+spec.ID()),
		ckpt.Manifest{Identity: spec.Identity(), RootSeed: spec.Seed}, "w0")
	if err != nil {
		t.Fatal(err)
	}
	const done = 3
	for _, cell := range cells[:done] {
		res, err := core.Run(cell)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := core.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(ckpt.Record{Key: cell.CheckpointKey(), Status: ckpt.StatusDone, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := startService(t, Config{CheckpointDir: root})
	job, err := s.coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, s, "w1", nil)
	waitDone(t, job, 90*time.Second)
	if rep := job.Report(); rep == nil || rep.Done != len(cells) || rep.Resumed != done {
		t.Fatalf("report = %+v, want all %d cells done and %d resumed", rep, len(cells), done)
	}
}
