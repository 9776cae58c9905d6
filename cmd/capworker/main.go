// Command capworker is the sweep cell executor: it joins a capserved
// coordinator, expands the job independently (the spec is declared,
// not shipped — the CheckpointKey on each lease guards against
// version skew), executes each lease grant's batch of cells through the
// guarded executor with its own checkpoint journal namespace, under one
// heartbeat, and reports the batch's results as checkpoint-codec bytes
// in one message.
//
//	capworker -coordinator http://host:port [-id w0] [-max-leases 8]
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
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/sigctx"
	"repro/internal/sweepd"
)

func main() {
	fs := flag.NewFlagSet("capworker", flag.ExitOnError)
	id := fs.String("id", "", "worker identity: lease holder and journal writer namespace (default w-<pid>)")
	coordinator := fs.String("coordinator", "", "coordinator base URL (http://host:port)")
	maxLeases := fs.Int("max-leases", 8, "most cells leased per batch (one heartbeat, one result message, one journal fsync each; the coordinator also caps each grant at a fair share of the pending cells)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell watchdog (0 = off)")
	netFaults := fs.String("net-faults", "", "wire fault spec on every coordinator call (faults.ParseNetSpec syntax)")
	netSeed := fs.Int64("net-seed", 1, "root seed for the wire fault injector (this worker derives its own from it)")
	fs.Parse(os.Args[1:])

	if *id == "" {
		*id = fmt.Sprintf("w-%d", os.Getpid())
	}
	ctx, stop := sigctx.New(context.Background(), nil)
	defer stop()

	// The wire fault layer sits in the HTTP transport, under the
	// protocol: every retry, duplicate and dropped reply the spec
	// injects exercises the same idempotency the real network relies on.
	var client *http.Client
	if *netFaults != "" {
		ns, err := faults.ParseNetSpec(*netFaults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capworker: -net-faults: %v\n", err)
			os.Exit(2)
		}
		if !ns.Zero() {
			client = &http.Client{
				Timeout:   30 * time.Second,
				Transport: faults.NewNetInjector(ns, sweepd.DeriveNetSeed(*netSeed, *id), nil),
			}
		}
	}

	w, err := sweepd.NewWorker(sweepd.WorkerConfig{
		ID:          *id,
		Coordinator: *coordinator,
		MaxLeases:   *maxLeases,
		CellTimeout: *cellTimeout,
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
			*id, time.Since(start).Round(time.Millisecond))
		os.Exit(130)
	case err != nil:
		fmt.Fprintf(os.Stderr, "capworker: %s: %v\n", *id, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "capworker: %s: drained cleanly after %v\n", *id, time.Since(start).Round(time.Millisecond))
}
