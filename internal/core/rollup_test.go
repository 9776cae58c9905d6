package core

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/prec"
	"repro/internal/telemetry/agg"
)

// sweepSurface runs a reduced sweep through RunCells with the rollup
// observer attached and renders the deterministic artifacts.
func sweepSurface(t *testing.T, workers int, journal *ckpt.Journal) ([]byte, []byte) {
	t.Helper()
	rows := reducedRows(t, GEMM, prec.Double, 2)
	s := agg.NewSurface(0)
	a := surfaceObserver{s}
	opt := SweepOptions{Seed: 42, Trace: true}
	popt := ParallelOptions{Workers: workers, Checkpoint: journal, Rollups: a}
	if _, err := ParallelSweep(rows, opt, popt); err != nil {
		t.Fatal(err)
	}
	surf, err := s.MarshalSurface()
	if err != nil {
		t.Fatal(err)
	}
	roll, err := s.MarshalRollups()
	if err != nil {
		t.Fatal(err)
	}
	return surf, roll
}

// surfaceObserver adapts a bare Surface to the RollupObserver seam
// (production wiring goes through agg.Aggregator; tests skip the
// stream).
type surfaceObserver struct{ s *agg.Surface }

func (o surfaceObserver) ObserveCell(c agg.CellRollup) { o.s.Add(c) }

// TestRollupSurfaceWorkerCountIndependence is the aggregation half of
// the determinism contract: surface.json and rollups.jsonl rendered
// from a 1-worker sweep and an 8-worker sweep are byte-identical, with
// task-level sketches (Trace on) included.
func TestRollupSurfaceWorkerCountIndependence(t *testing.T) {
	surf1, roll1 := sweepSurface(t, 1, nil)
	surf8, roll8 := sweepSurface(t, 8, nil)
	if !bytes.Equal(surf1, surf8) {
		t.Errorf("surface.json differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(roll1, roll8) {
		t.Errorf("rollups.jsonl differs between -parallel 1 and -parallel 8")
	}
	if len(surf1) == 0 || len(roll1) == 0 {
		t.Fatal("artifacts are empty")
	}
}

// TestRollupSurfaceSurvivesResume: cells restored from a checkpoint
// journal produce the identical surface to the run that journalled
// them — the crash-survival half of the contract.
func TestRollupSurfaceSurvivesResume(t *testing.T) {
	dir := t.TempDir()
	m := ckpt.Manifest{Identity: "rollup-resume-test", RootSeed: 42}
	j, err := ckpt.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	surf1, roll1 := sweepSurface(t, 4, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: every cell restores from the journal.
	j2, err := ckpt.Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	surf2, roll2 := sweepSurface(t, 4, j2)
	if j2.Done() == 0 {
		t.Fatal("resume journal restored no cells — the test exercised nothing")
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(surf1, surf2) {
		t.Errorf("surface.json differs across kill+resume")
	}
	if !bytes.Equal(roll1, roll2) {
		t.Errorf("rollups.jsonl differs across kill+resume")
	}
}

// TestBuildRollupFields pins the Config/Result -> rollup mapping.
func TestBuildRollupFields(t *testing.T) {
	cfg := smallGemm()
	cfg.Trace = true
	cfg.Seed = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := BuildRollup(cfg, res)
	if c.Key != cfg.CheckpointKey() {
		t.Errorf("Key = %q, want the checkpoint key", c.Key)
	}
	if c.GroupKey != cfg.GroupKey() {
		t.Errorf("GroupKey = %q, want %q", c.GroupKey, cfg.GroupKey())
	}
	if c.Platform != cfg.Spec.Name || c.Workload != cfg.Workload.String() || c.Plan != res.Plan {
		t.Errorf("identity fields wrong: %+v", c)
	}
	if c.Seed != 7 || c.MakespanS != float64(res.Makespan) || c.EnergyJ != float64(res.Energy) {
		t.Errorf("scalar fields wrong: %+v", c)
	}
	if c.EDP != c.EnergyJ*c.MakespanS || c.ED2P != c.EDP*c.MakespanS {
		t.Errorf("EDP/ED2P inconsistent: %+v", c)
	}
	if c.Tasks == 0 || len(c.DeviceEnergyJ) == 0 {
		t.Errorf("counters/device split missing: %+v", c)
	}
	for _, name := range []string{agg.SketchTaskDuration, agg.SketchQueueWait, agg.SketchSpanEnergy, agg.SketchGPUPower} {
		sk := c.Sketches[name]
		if sk == nil || sk.Count() == 0 {
			t.Errorf("sketch %s missing or empty (Trace was on)", name)
		}
	}

	// Without tracing, task-level sketches are absent, scalars remain.
	cfg2 := cfg
	cfg2.Trace = false
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := BuildRollup(cfg2, res2)
	if len(c2.Sketches) != 0 {
		t.Errorf("untraced cell should carry no task-level sketches")
	}
	if c2.EnergyJ == 0 {
		t.Errorf("untraced cell lost its scalars")
	}
}

// TestGroupKeyMatchesCheckpointKey pins the byte-compatibility claim:
// GroupKey equals CheckpointKey with the "|seed=N" segment removed.
func TestGroupKeyMatchesCheckpointKey(t *testing.T) {
	cfg := smallGemm()
	cfg.Seed = 12345
	cfg.Trace = true
	cfg.SkipCalibration = true
	want := "|seed=12345"
	full, group := cfg.CheckpointKey(), cfg.GroupKey()
	if !bytes.Contains([]byte(full), []byte(want)) {
		t.Fatalf("checkpoint key %q lost its seed segment", full)
	}
	reconstructed := bytes.Replace([]byte(full), []byte(want), nil, 1)
	if group != string(reconstructed) {
		t.Fatalf("GroupKey %q != CheckpointKey minus seed %q", group, reconstructed)
	}
}
