package main

import (
	"context"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sweepd"
)

// newOpts parses args the way main does, without exiting on errors.
func newOpts(cmd string, args ...string) (*options, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOpts(fs, args)
}

// localCellKeys runs the experiment in-process on one pool worker with a
// checkpoint journal and an event bus attached and returns the
// CheckpointKeys of the cells it started (their running records'
// CheckpointCommitted events), in the order it started them, with the
// run's error.
func localCellKeys(t *testing.T, cmd string, args ...string) ([]string, error) {
	t.Helper()
	o, err := newOpts(cmd, append(args, "-parallel", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	o.ctx = context.Background()
	o.journal, err = ckpt.Create(t.TempDir(), ckpt.Manifest{Identity: checkpointIdentity(cmd, o), RootSeed: o.seed})
	if err != nil {
		t.Fatal(err)
	}
	defer o.journal.Close()
	o.events = obs.NewBus()
	sub := o.events.Subscribe(1 << 14)
	defer sub.Close()

	// The experiment prints its tables to stdout; only the cells matter.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	err = experimentFunc(cmd)(o)
	os.Stdout = stdout
	devnull.Close()
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("%s: subscriber dropped %d events", cmd, n)
	}
	var keys []string
	for _, ev := range sub.Drain() {
		if ev.Type == obs.CheckpointCommitted && ev.Status == string(ckpt.StatusRunning) {
			keys = append(keys, ev.Cell)
		}
	}
	return keys, err
}

// TestLocalCellsMatchSubmittedJob checks that a local run and a -submit
// job of the same experiment cover the same cells with the same seeds:
// capbench's in-process sweep and sweepd.JobSpec.Cells both select rows
// through core's experiment catalogue.  Under faults an exhausted cap
// write can fail a cell, which stops a local sweep; the cells it started
// must then be a prefix of the job's.
func TestLocalCellsMatchSubmittedJob(t *testing.T) {
	for _, exp := range []string{"grid", "fig3", "fig4"} {
		for _, plat := range []string{"all", "24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100"} {
			for _, fault := range []string{"", "capfail=0.3,taskfail=0.02"} {
				name := exp + "/" + plat + "/" + fault
				local, runErr := localCellKeys(t, exp, "-platform", plat, "-scale", "4", "-seed", "7", "-faults", fault)
				cells, err := sweepd.JobSpec{Experiment: exp, Platform: plat, Scale: 4, Seed: 7, Faults: fault}.Cells()
				if err != nil {
					t.Fatal(err)
				}
				job := make([]string, len(cells))
				for i, c := range cells {
					job[i] = c.CheckpointKey()
				}
				switch {
				case runErr != nil && (fault == "" || len(local) == 0 || len(local) > len(job) || !slices.Equal(local, job[:len(local)])):
					t.Errorf("%s: local run failed after %d of the job's %d cells, not on a prefix of them: %v",
						name, len(local), len(job), runErr)
				case runErr == nil && (len(job) == 0 || !slices.Equal(local, job)):
					t.Errorf("%s: local run covers %d cells, the job %d, or they differ in keys or order",
						name, len(local), len(job))
				}
			}
		}
	}
}

// TestSubmitRejectsLocalOnlyFlags checks that -submit refuses every flag
// only an in-process run honours, instead of silently ignoring it.
func TestSubmitRejectsLocalOnlyFlags(t *testing.T) {
	const url = "http://127.0.0.1:1"
	for _, args := range [][]string{
		{"-trace-dir", "d"},
		{"-checkpoint", "d"},
		{"-checkpoint", "d", "-resume"},
		{"-agg-dir", "d"},
		{"-metrics-addr", "127.0.0.1:0"},
		{"-out", "d"},
		{"-csv"},
		{"-cell-timeout", "1s"},
		{"-stall-profile", "1s"},
	} {
		_, err := newOpts("grid", append([]string{"-submit", url}, args...)...)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("-submit with %v: err = %v, want a rejection naming %s", args, err, args[0])
		}
		if _, err := newOpts("grid", args...); err != nil {
			t.Errorf("%v without -submit: %v", args, err)
		}
	}
	if _, err := newOpts("grid", "-submit", url, "-platform", "all", "-scale", "4", "-seed", "7",
		"-scheduler", "dmda", "-faults", "capfail=0.3", "-tenant", "t", "-submit-timeout", "1s"); err != nil {
		t.Errorf("job flags rejected under -submit: %v", err)
	}
}

// TestSubmitValidatesLikeCoordinator checks that the client refuses a job
// the coordinator would refuse before it contacts the service.
func TestSubmitValidatesLikeCoordinator(t *testing.T) {
	for _, tc := range []struct{ cmd, platform string }{
		{"table2", "all"},
		{"fig5", "all"},
		{"grid", "no-such-platform"},
	} {
		o, err := newOpts(tc.cmd, "-submit", "http://127.0.0.1:1", "-platform", tc.platform)
		if err != nil {
			t.Fatal(err)
		}
		o.ctx = context.Background()
		want := sweepd.JobSpec{Experiment: tc.cmd, Platform: tc.platform}.Validate()
		if err := runSubmit(o, tc.cmd); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s -platform %s: runSubmit err = %v, want the coordinator's %v", tc.cmd, tc.platform, err, want)
		}
	}
}
