// Command capworker is the sweep cell executor: it joins a capserved
// coordinator, expands the job independently (the spec is declared,
// not shipped — the CheckpointKey on each lease guards against
// version skew), executes each lease grant's batch of cells through the
// guarded executor under one heartbeat, and reports the batch's results
// as checkpoint-codec bytes in one message.  It keeps nothing on disk:
// the coordinator journals every cell it acknowledges.
//
//	capworker -coordinator http://host:port [-id w0]
//	          [-cell-timeout 0]
//
// The process is expendable by design: SIGKILL it mid-cell and the
// coordinator re-leases its cells to another worker byte-identically.
// SIGTERM/SIGINT abort the running cell, report the batch's finished
// cells and release the rest, which re-queue at once without charging
// a kill; a second signal force-exits 130.  Leasing a poisoned cell crashes the
// process with status 3 — that is the chaos harness's simulated hard
// fault, contained by the coordinator's kill budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/sigctx"
	"repro/internal/sweepd"
)

// options are capworker's parsed flags.
type options struct {
	id          string
	coordinator string
	cellTimeout time.Duration
	netFaults   faults.NetSpec
	netSeed     int64
}

// parseArgs parses capworker's flags; an error is a usage error.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.id, "id", "", "worker identity: the lease holder name, unique per live worker (default w-<pid>)")
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL (http://host:port)")
	fs.DurationVar(&o.cellTimeout, "cell-timeout", 0, "per-cell watchdog (0 = off)")
	netFaults := fs.String("net-faults", "", "wire fault spec on every coordinator call (faults.ParseNetSpec syntax)")
	fs.Int64Var(&o.netSeed, "net-seed", 1, "root seed for the wire fault injector (this worker derives its own from it)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.coordinator == "" {
		return nil, errors.New("-coordinator is required")
	}
	if o.cellTimeout < 0 {
		return nil, fmt.Errorf("-cell-timeout %v is negative (0 turns the watchdog off)", o.cellTimeout)
	}
	ns, err := faults.ParseNetSpec(*netFaults)
	if err != nil {
		return nil, fmt.Errorf("-net-faults: %w", err)
	}
	o.netFaults = ns
	if o.id == "" {
		o.id = fmt.Sprintf("w-%d", os.Getpid())
	}
	return o, nil
}

func main() {
	fs := flag.NewFlagSet("capworker", flag.ExitOnError)
	o, err := parseArgs(fs, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "capworker: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	ctx, stop := sigctx.New(context.Background(), nil)
	defer stop()

	// The wire fault layer sits in the HTTP transport, under the
	// protocol: every retry, duplicate and dropped reply the spec
	// injects exercises the same idempotency the real network relies on.
	var client *http.Client
	if !o.netFaults.Zero() {
		client = &http.Client{
			Timeout:   30 * time.Second,
			Transport: faults.NewNetInjector(o.netFaults, sweepd.DeriveNetSeed(o.netSeed, o.id), nil),
		}
	}

	w, err := sweepd.NewWorker(sweepd.WorkerConfig{
		ID:          o.id,
		Coordinator: o.coordinator,
		CellTimeout: o.cellTimeout,
		Client:      client,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "capworker: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	err = w.Run(ctx)
	switch {
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "capworker: %s: interrupted after %v — unfinished leases released for re-run\n",
			o.id, time.Since(start).Round(time.Millisecond))
		os.Exit(130)
	case err != nil:
		fmt.Fprintf(os.Stderr, "capworker: %s: %v\n", o.id, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "capworker: %s: drained cleanly after %v\n", o.id, time.Since(start).Round(time.Millisecond))
}
