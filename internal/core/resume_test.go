package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
)

// resumeCells builds a small but real sweep: every plan of the 2-GPU
// V100 node over a reduced GEMM, seeds fixed so CheckpointKey is stable.
func resumeCells(t *testing.T) []Config {
	t.Helper()
	spec, err := platform.SpecByName(platform.TwoV100Name)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, p := range []string{"HH", "HB", "BB", "HL", "LL"} {
		cfgs = append(cfgs, Config{
			Spec:     spec,
			Workload: Workload{Op: GEMM, N: 2 * 2880, NB: 2880, Precision: prec.Double},
			Plan:     powercap.MustParsePlan(p),
			BestFrac: 0.62,
			Seed:     42,
		})
	}
	return cfgs
}

// encodeAll renders results into the byte string the determinism
// contract is checked over.  JSON because it serialises maps
// in sorted key order, making equal values equal bytes.
func encodeAll(t *testing.T, results []*Result) []byte {
	t.Helper()
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d is nil", i)
		}
	}
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCellsResumeByteIdentical is the tentpole property test: cancel
// a checkpointed sweep at a random point, resume it — possibly at a
// different worker count — and the restored+recomputed results must be
// byte-identical to an uninterrupted run.
func TestRunCellsResumeByteIdentical(t *testing.T) {
	cfgs := resumeCells(t)
	oneshot, err := RunCells(cfgs, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, oneshot)

	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 8} {
		for trial := 0; trial < 2; trial++ {
			cancelAt := 1 + rng.Intn(len(cfgs)-1)
			dir := t.TempDir()
			m := ckpt.Manifest{Identity: "resume-test", RootSeed: 42}
			j, err := ckpt.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			_, runErr := RunCells(cfgs, ParallelOptions{
				Workers:    workers,
				Context:    ctx,
				Checkpoint: j,
				OnProgress: func(done, total int) {
					if done == cancelAt {
						cancel()
					}
				},
			})
			cancel()
			if runErr == nil {
				t.Fatalf("workers=%d cancelAt=%d: interrupted run returned no error", workers, cancelAt)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Resume at the *other* pool size: the journal identity
			// deliberately excludes worker count.
			resumeWorkers := 9 - workers
			j2, err := ckpt.Resume(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Done() < cancelAt {
				t.Errorf("workers=%d cancelAt=%d: journal holds %d done cells, want >= %d",
					workers, cancelAt, j2.Done(), cancelAt)
			}
			results, err := RunCells(cfgs, ParallelOptions{Workers: resumeWorkers, Checkpoint: j2})
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeAll(t, results); !bytes.Equal(got, want) {
				t.Errorf("workers=%d→%d cancelAt=%d: resumed results differ from the uninterrupted run",
					workers, resumeWorkers, cancelAt)
			}
			if j2.Resumed() < cancelAt {
				t.Errorf("workers=%d cancelAt=%d: only %d cells restored from the journal, want >= %d",
					workers, cancelAt, j2.Resumed(), cancelAt)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRunCellsResumeSkipsModelCells pins the checkpointable() rule:
// cells carrying a pre-trained model are never journalled (the model is
// process state a resume cannot reconstruct), yet still run normally.
func TestRunCellsResumeSkipsModelCells(t *testing.T) {
	cfgs := resumeCells(t)[:2]
	cfgs[1].Model = perfmodel.NewHistory()

	dir := t.TempDir()
	m := ckpt.Manifest{Identity: "model-test"}
	j, err := ckpt.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	results, err := RunCells(cfgs, ParallelOptions{Workers: 2, Checkpoint: j})
	if err != nil {
		t.Fatal(err)
	}
	if results[1] == nil {
		t.Fatal("model cell did not run")
	}
	if _, ok := j.Lookup(cfgs[0].CheckpointKey()); !ok {
		t.Error("plain cell missing from the journal")
	}
	if _, ok := j.Lookup(cfgs[1].CheckpointKey()); ok {
		t.Error("model cell was journalled; its restore would silently drop the model's influence")
	}
}

// TestCheckpointKeyDistinguishesCells checks the key covers the fields
// that change results and collapses for identical configs.
func TestCheckpointKeyDistinguishesCells(t *testing.T) {
	cfgs := resumeCells(t)
	seen := map[string]int{}
	for i, cfg := range cfgs {
		key := cfg.CheckpointKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("cells %d and %d share key %q", prev, i, key)
		}
		seen[key] = i
	}
	a := cfgs[0]
	if a.CheckpointKey() != cfgs[0].CheckpointKey() {
		t.Error("identical configs produced different keys")
	}
	b := a
	b.Seed = 43
	if a.CheckpointKey() == b.CheckpointKey() {
		t.Error("seed change did not change the key")
	}
	c := a
	c.CapBreaker = 1
	if a.CheckpointKey() == c.CheckpointKey() {
		t.Error("breaker threshold change did not change the key")
	}
}
