package benchcheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fsutil"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus.golden from the current code")

const goldenPath = "testdata/corpus.golden"

// runCorpus replays the whole corpus through the parallel executor and
// returns one digest per cell, in corpus order.
func runCorpus(t *testing.T, cells []Cell, opt core.ParallelOptions) []string {
	t.Helper()
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Cfg
	}
	results, err := core.RunCells(cfgs, opt)
	if err != nil {
		t.Fatalf("corpus run failed: %v", err)
	}
	digests := make([]string, len(cells))
	for i, res := range results {
		d, err := Digest(cfgs[i], res)
		if err != nil {
			t.Fatalf("cell %s: digest: %v", cells[i].Name, err)
		}
		digests[i] = d
	}
	return digests
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[name] = digest
	}
	return golden
}

// TestCorpusShape guards the corpus contract the optimization passes
// rely on: enough cells, unique names, and coverage of the faulted and
// traced paths (the two places reuse-before-reset bugs would hide).
func TestCorpusShape(t *testing.T) {
	cells := Corpus()
	if len(cells) < 20 {
		t.Fatalf("corpus has %d cells, want >= 20", len(cells))
	}
	seen := make(map[string]bool)
	faulted, traced := 0, 0
	for _, c := range cells {
		if seen[c.Name] {
			t.Fatalf("duplicate corpus cell name %q", c.Name)
		}
		seen[c.Name] = true
		if !c.Cfg.Faults.Zero() {
			faulted++
		}
		if c.Cfg.Trace {
			traced++
		}
	}
	if faulted < 4 {
		t.Errorf("corpus has %d faulted cells, want >= 4", faulted)
	}
	if traced < 4 {
		t.Errorf("corpus has %d traced cells, want >= 4", traced)
	}
}

// TestEquivalence is the gate every optimization commit must hold: the
// corpus replayed serially digests exactly to the committed golden, and
// replayed at 8 workers digests identically to the serial run.  A
// hot-path change that alters any Result row, trace artifact or rollup
// — even one float bit — fails here before any benchmark runs.
func TestEquivalence(t *testing.T) {
	cells := Corpus()
	serial := runCorpus(t, cells, core.ParallelOptions{Workers: 1})

	if *update {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.Name, serial[i])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fsutil.WriteFileAtomic(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", goldenPath, len(cells))
		return
	}

	golden := readGolden(t)
	if len(golden) != len(cells) {
		t.Errorf("golden has %d entries, corpus has %d (rerun with -update after adding cells)", len(golden), len(cells))
	}
	for i, c := range cells {
		want, ok := golden[c.Name]
		if !ok {
			t.Errorf("cell %s missing from golden (rerun with -update)", c.Name)
			continue
		}
		if serial[i] != want {
			t.Errorf("cell %s: digest drifted\n got %s\nwant %s", c.Name, serial[i], want)
		}
	}

	parallel := runCorpus(t, cells, core.ParallelOptions{Workers: 8})
	for i, c := range cells {
		if parallel[i] != serial[i] {
			t.Errorf("cell %s: parallel (8 workers) digest differs from serial", c.Name)
		}
	}
}

// TestEquivalenceResume replays the corpus through a simulated crash:
// the first half of the fleet runs under a checkpoint journal, then a
// resumed run of the full fleet restores those cells from the journal
// and computes the rest.  Digests of the resumed run must match the
// direct run cell-for-cell — restored Results are byte-identical to
// recomputed ones, so the optimization passes cannot break the result
// codec's round-trip either.
func TestEquivalenceResume(t *testing.T) {
	cells := Corpus()
	direct := runCorpus(t, cells, core.ParallelOptions{Workers: 4})

	dir := t.TempDir()
	m := ckpt.Manifest{Identity: "benchcheck-corpus", RootSeed: 7}
	j, err := ckpt.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	half := len(cells) / 2
	runCorpus(t, cells[:half], core.ParallelOptions{Workers: 4, Checkpoint: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := ckpt.Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := runCorpus(t, cells, core.ParallelOptions{Workers: 4, Checkpoint: j2})
	if got := j2.Resumed(); got != half {
		t.Errorf("resume restored %d cells, want %d", got, half)
	}
	for i, c := range cells {
		if resumed[i] != direct[i] {
			t.Errorf("cell %s: resumed digest differs from direct run", c.Name)
		}
	}
}
