// Command capserved is the sweep coordinator: it loads a grid job,
// shards its cells into leases and dispatches them to capworker
// processes over HTTP, supervising a local worker fleet if asked.
// The same endpoint serves the dispatch protocol, job submission and
// the full telemetry plane (/metrics, /progress, /events, /surface,
// /healthz, /v1/state).
//
// One-shot mode (the capbench replacement for sharded sweeps):
//
//	capserved -experiment grid -platform 24-Intel-2-V100 -scale 2 \
//	          -workers 3 -checkpoint ckpt/ -agg-dir out/
//
// runs the job across three supervised capworker children and exits
// when every cell is terminal.  Service mode (no -experiment) stays
// up and takes jobs on POST /v1/submit — capbench's -submit flag
// posts there.  SIGTERM/SIGINT drains gracefully: in-flight leases
// resolve, the job is sealed so a restart resumes the remainder; a
// second signal force-exits 130 immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sigctx"
	"repro/internal/sweepd"
	"repro/internal/telemetry"
)

// options are capserved's parsed flags.
type options struct {
	listen, checkpoint, aggDir string
	workers                    int
	workerBin                  string
	serial                     bool

	maxQueue, tenantQuota int
	netFaults             string // validated; passed on to workers verbatim
	netSeed               int64

	experiment, name, platform string
	scale                      int
	seed                       int64
	scheduler, faults, poison  string

	leaseTTL, heartbeat, workerTimeout, stealAfter time.Duration
	maxFailures, killBudget                        int
	cellTimeout, drainGrace                        time.Duration
}

// parseArgs parses capserved's flags; an error is a usage error.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "dispatch + telemetry address (host:port; :0 picks a free port)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "base directory for the state journal and per-job checkpoint journals (empty = no crash safety)")
	fs.StringVar(&o.aggDir, "agg-dir", "", "base directory for per-job artifacts (surface.json, digests.json, jobreport.json, events.jsonl)")
	fs.IntVar(&o.workers, "workers", 0, "supervise this many local capworker processes (0 = external workers only)")
	fs.StringVar(&o.workerBin, "worker-bin", "", "capworker binary for the supervised fleet (default: next to this binary, then $PATH)")
	fs.BoolVar(&o.serial, "serial", false, "run one in-process worker instead of spawning processes (baseline/debug mode)")

	fs.IntVar(&o.maxQueue, "max-queue", 0, "bound on queued jobs; a full queue answers 429 + Retry-After (0 = default 8)")
	fs.IntVar(&o.tenantQuota, "tenant-quota", 0, "bound on queued+active jobs per named tenant (0 = default 4)")
	fs.StringVar(&o.netFaults, "net-faults", "", "wire fault spec injected into supervised workers (faults.ParseNetSpec syntax, e.g. drop=0.05,dup=0.05,err=0.05,delay=20ms)")
	fs.Int64Var(&o.netSeed, "net-seed", 1, "root seed for the wire fault injector (per-worker seeds derive from it)")

	fs.StringVar(&o.experiment, "experiment", "", "one-shot job: grid, fig3 or fig4 (empty = service mode, wait for /v1/submit)")
	fs.StringVar(&o.name, "name", "", "one-shot job name (labels artifacts; default: the experiment)")
	fs.StringVar(&o.platform, "platform", "all", "one-shot job platform filter")
	fs.IntVar(&o.scale, "scale", 1, "one-shot job scale divisor")
	fs.Int64Var(&o.seed, "seed", 0, "one-shot job root seed")
	fs.StringVar(&o.scheduler, "scheduler", "", "one-shot job scheduler override")
	fs.StringVar(&o.faults, "faults", "", "one-shot job fault-injection spec")
	fs.StringVar(&o.poison, "poison", "", "chaos: crash any worker that leases a cell whose key contains this substring")

	fs.DurationVar(&o.leaseTTL, "lease-ttl", 0, "lease time-to-live (0 = default)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "heartbeat interval advertised to workers (0 = TTL/3)")
	fs.DurationVar(&o.workerTimeout, "worker-timeout", 0, "declare a silent worker lost after this long (0 = 2×TTL)")
	fs.DurationVar(&o.stealAfter, "steal-after", 0, "work-stealing floor: steal a straggler lease no earlier than this (0 = default)")
	fs.IntVar(&o.maxFailures, "max-failures", 0, "quarantine a cell after this many contained failures (0 = default 3)")
	fs.IntVar(&o.killBudget, "kill-budget", 0, "quarantine a cell after it loses this many workers (0 = default 3)")
	fs.DurationVar(&o.cellTimeout, "cell-timeout", 0, "per-cell watchdog passed to supervised workers (0 = off)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 30*time.Second, "how long a drain waits for in-flight leases before sealing the job")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, c := range []struct {
		flag string
		v    int
	}{
		{"workers", o.workers}, {"max-queue", o.maxQueue}, {"tenant-quota", o.tenantQuota},
		{"max-failures", o.maxFailures}, {"kill-budget", o.killBudget},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("-%s %d is negative (0 means the default)", c.flag, c.v)
		}
	}
	if o.cellTimeout < 0 {
		return nil, fmt.Errorf("-cell-timeout %v is negative (0 turns the watchdog off)", o.cellTimeout)
	}
	for _, c := range []struct {
		flag string
		v    time.Duration
	}{
		{"lease-ttl", o.leaseTTL}, {"heartbeat", o.heartbeat}, {"worker-timeout", o.workerTimeout},
		{"steal-after", o.stealAfter}, {"drain-grace", o.drainGrace},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("-%s %v is negative", c.flag, c.v)
		}
	}
	if o.serial && o.workers > 0 {
		return nil, errors.New("-serial and -workers are mutually exclusive")
	}
	if _, err := faults.ParseNetSpec(o.netFaults); err != nil {
		return nil, fmt.Errorf("-net-faults: %w", err)
	}
	return o, nil
}

func main() {
	fs := flag.NewFlagSet("capserved", flag.ExitOnError)
	o, err := parseArgs(fs, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "capserved: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}

	// First SIGINT/SIGTERM drains: leases resolve, the job seals, a
	// restart resumes the remainder.  A second signal force-exits 130.
	ctx, stop := sigctx.New(context.Background(), nil)
	defer stop()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	col := telemetry.NewCollector()
	coord, err := sweepd.New(sweepd.Config{
		CheckpointDir: o.checkpoint,
		AggDir:        o.aggDir,
		Lease: sweepd.LeaseConfig{
			TTL:         o.leaseTTL,
			MaxFailures: o.maxFailures,
			KillBudget:  o.killBudget,
			StealAfter:  o.stealAfter,
		},
		MaxQueue:       o.maxQueue,
		TenantQuota:    o.tenantQuota,
		HeartbeatEvery: o.heartbeat,
		WorkerTimeout:  o.workerTimeout,
		Workers:        o.workers,
		Collector:      col,
		Logf:           logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "capserved: %v\n", err)
		os.Exit(1)
	}

	// Replay the durable state from a previous life before serving:
	// queued and mid-flight jobs re-enter the queue, terminal jobs come
	// back as queryable records, burned budgets are restored.
	if n, rerr := coord.Recover(); rerr != nil {
		fmt.Fprintf(os.Stderr, "capserved: recover: %v\n", rerr)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "capserved: recovered %d job(s) from the state journal\n", n)
	}

	// The scanner and tracker must outlive the first signal — they drive
	// lease expiry during the drain — so they get their own context.
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	coord.Start(srvCtx)

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capserved: listen: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "capserved: serving dispatch, /v1/submit, /healthz, /metrics, /progress and /events on %s\n", url)

	var eventLog *obs.FileSink
	if o.aggDir != "" {
		if err := os.MkdirAll(o.aggDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "capserved: -agg-dir: %v\n", err)
			os.Exit(1)
		}
		eventLog, err = obs.NewFileSink(filepath.Join(o.aggDir, "events.jsonl"), coord.Bus())
		if err != nil {
			fmt.Fprintf(os.Stderr, "capserved: events log: %v\n", err)
			os.Exit(1)
		}
	}

	// The worker fleet: supervised child processes, or one in-process
	// worker in -serial mode.
	fleetDone := make(chan struct{})
	fleetCtx, fleetCancel := context.WithCancel(context.Background())
	defer fleetCancel()
	switch {
	case o.serial:
		w, werr := sweepd.NewWorker(sweepd.WorkerConfig{
			ID: "w0", Coordinator: url,
			CellTimeout: o.cellTimeout, Logf: logf,
			Client: workerClient("w0", o.netFaults, o.netSeed),
		})
		if werr != nil {
			fmt.Fprintf(os.Stderr, "capserved: %v\n", werr)
			os.Exit(1)
		}
		go func() {
			defer close(fleetDone)
			if rerr := w.Run(fleetCtx); rerr != nil && fleetCtx.Err() == nil {
				fmt.Fprintf(os.Stderr, "capserved: serial worker: %v\n", rerr)
			}
		}()
	case o.workers > 0:
		bin, berr := findWorkerBin(o.workerBin)
		if berr != nil {
			fmt.Fprintf(os.Stderr, "capserved: %v\n", berr)
			os.Exit(1)
		}
		sup, serr := sweepd.NewSupervisor(sweepd.SupervisorConfig{
			Workers: o.workers,
			Spawn: func(slot int, id string) *exec.Cmd {
				args := []string{
					"-id", id, "-coordinator", url,
					"-cell-timeout", o.cellTimeout.String(),
				}
				if o.netFaults != "" {
					args = append(args, "-net-faults", o.netFaults, "-net-seed", fmt.Sprint(o.netSeed))
				}
				cmd := exec.Command(bin, args...)
				cmd.Stdout = os.Stdout
				cmd.Stderr = os.Stderr
				return cmd
			},
			OnExit: coord.WorkerExited,
			Logf:   logf,
		})
		if serr != nil {
			fmt.Fprintf(os.Stderr, "capserved: %v\n", serr)
			os.Exit(1)
		}
		go func() { defer close(fleetDone); sup.Run(fleetCtx) }()
	default:
		close(fleetDone)
	}

	exit := 0
	if o.experiment != "" {
		// One-shot: submit the declared job and wait for it to finish (or
		// for a drain signal).
		spec := sweepd.JobSpec{
			Name: o.name, Experiment: o.experiment, Platform: o.platform,
			Scale: o.scale, Seed: o.seed, Scheduler: o.scheduler,
			Faults: o.faults, Poison: o.poison,
		}
		job, jerr := coord.Submit(spec)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "capserved: submit: %v\n", jerr)
			os.Exit(1)
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			drain(coord, o.drainGrace)
			exit = 130
		}
		if rep := job.Report(); rep != nil {
			fmt.Fprintf(os.Stderr, "capserved: job %s: %d/%d cells done (%d resumed, %d stolen, %d expired)\n",
				rep.JobID, rep.Done, rep.Cells, rep.Resumed, rep.Stolen, rep.Expired)
			if rep.Degraded {
				fmt.Fprintf(os.Stderr, "capserved: DEGRADED: %d cell(s) quarantined as poisoned\n", len(rep.Quarantined))
			}
			if rep.Drained {
				fmt.Fprintf(os.Stderr, "capserved: drained before completion — re-run with the same -checkpoint to resume\n")
			}
			if job.ArtifactDir() != "" {
				fmt.Fprintf(os.Stderr, "capserved: artifacts in %s\n", job.ArtifactDir())
			}
		}
	} else {
		// Service mode: take jobs on /v1/submit until told to stop.
		<-ctx.Done()
		drain(coord, o.drainGrace)
		exit = 130
	}

	// Wind the fleet down (SIGTERM, grace, SIGKILL via the supervisor),
	// then the HTTP plane.
	fleetCancel()
	<-fleetDone
	srv.Close()
	if eventLog != nil {
		eventLog.Close()
	}
	// Release journals without sealing: queued jobs stay queued in the
	// state journal and resume on the next life.
	coord.Close()
	os.Exit(exit)
}

// workerClient builds the serial worker's HTTP client, wrapping the
// transport with the wire fault injector when a spec is set (the same
// derivation capworker uses for its own seed).
func workerClient(id, spec string, seed int64) *http.Client {
	ns, err := faults.ParseNetSpec(spec)
	if err != nil || ns.Zero() {
		return nil // worker default
	}
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: faults.NewNetInjector(ns, sweepd.DeriveNetSeed(seed, id), nil),
	}
}

// drain seals the active job gracefully, bounded by the grace period.
func drain(coord *sweepd.Coordinator, grace time.Duration) {
	fmt.Fprintln(os.Stderr, "capserved: draining — waiting for in-flight leases (second signal force-exits)")
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	coord.Drain(dctx)
}

// findWorkerBin locates the capworker binary: explicit flag, then next
// to this executable, then $PATH.
func findWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "capworker")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if path, err := exec.LookPath("capworker"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("capworker binary not found (build it, or point -worker-bin at it)")
}
