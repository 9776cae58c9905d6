// Submit-to-service mode: instead of running a sweep in-process,
// -submit posts the experiment as a JobSpec to a capserved
// coordinator's /v1/submit and follows /v1/job/{id} until the sweep
// finishes.  The cells, seeds and artifacts are identical to a local
// run — the job is declared, and the service's workers expand it
// through the same pure functions this binary would use.
//
// The watch is bounded: -submit-timeout arms a deadline on the whole
// lifecycle (post + follow), so a dead or wedged coordinator fails the
// command with a clear error instead of being polled forever, while
// Ctrl-C still detaches cleanly (the job keeps running server-side).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/sweepd"
)

// runSubmit posts the experiment to the coordinator and waits for the
// job to finish, mirroring a local run's lifecycle.
func runSubmit(o *options, cmd string) error {
	base := strings.TrimSuffix(o.submit, "/")
	spec := sweepd.JobSpec{
		Experiment: cmd,
		Platform:   o.platform,
		Scale:      o.scale,
		Seed:       o.seed,
		Scheduler:  o.scheduler,
		Faults:     o.faultsRaw,
		Tenant:     o.tenant,
	}
	// Reject here exactly what the coordinator would reject on submit.
	if err := spec.Validate(); err != nil {
		return err
	}

	// Two cancellation causes share one context: the signal handler
	// (detach, job keeps running) and the -submit-timeout deadline
	// (failure — the coordinator never delivered).
	ctx := o.ctx
	if o.submitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.submitTimeout)
		defer cancel()
	}
	client := &http.Client{Timeout: 30 * time.Second}

	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+sweepd.PathSubmit, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return submitCtxErr(ctx, o, "", base)
		}
		return fmt.Errorf("submit to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("submit to %s: coordinator is at capacity (HTTP 429, Retry-After %ss): %s",
				base, resp.Header.Get("Retry-After"), strings.TrimSpace(string(msg)))
		}
		return fmt.Errorf("submit to %s: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var sr sweepd.SubmitReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return err
	}
	switch {
	case sr.Duplicate:
		fmt.Fprintf(os.Stderr, "capbench: job %s already known to %s (%s); watching it\n", sr.JobID, base, sr.State)
	case sr.State == "queued" && sr.Position > 0:
		fmt.Fprintf(os.Stderr, "capbench: job %s queued at position %d on %s (%d cells)\n", sr.JobID, sr.Position, base, sr.Cells)
	default:
		fmt.Fprintf(os.Stderr, "capbench: job %s submitted to %s (%d cells)\n", sr.JobID, base, sr.Cells)
	}

	jobPath := sweepd.PathJobPrefix + sr.JobID
	for {
		select {
		case <-ctx.Done():
			return submitCtxErr(ctx, o, sr.JobID, base)
		case <-time.After(500 * time.Millisecond):
		}
		st, err := jobStatus(ctx, client, base, jobPath)
		if err != nil {
			if ctx.Err() != nil {
				return submitCtxErr(ctx, o, sr.JobID, base)
			}
			fmt.Fprintf(os.Stderr, "capbench: job status: %v (retrying)\n", err)
			continue
		}
		switch {
		case st.State == "cancelled":
			return fmt.Errorf("job %s was cancelled on %s", sr.JobID, base)
		case st.State == "queued":
			fmt.Fprintf(os.Stderr, "\rcapbench: queued (position %d)          ", st.Position)
			continue
		case !st.Finished:
			fmt.Fprintf(os.Stderr, "\rcapbench: %d/%d cells (%d in flight)", st.Counts.Done, st.Counts.Total, st.Counts.InFlight)
			continue
		}
		fmt.Fprintln(os.Stderr)
		rep := st.Report
		if rep == nil {
			return fmt.Errorf("job %s finished without a report", sr.JobID)
		}
		fmt.Fprintf(os.Stderr, "capbench: job %s finished: %d/%d cells done (%d resumed, %d stolen, %d expired)\n",
			rep.JobID, rep.Done, rep.Cells, rep.Resumed, rep.Stolen, rep.Expired)
		if rep.Degraded {
			return fmt.Errorf("job %s degraded: %d cell(s) quarantined as poisoned", rep.JobID, len(rep.Quarantined))
		}
		return nil
	}
}

// submitCtxErr distinguishes the two ways the watch ends early: the
// deadline expired (an error — the coordinator never delivered) vs the
// user detached (a clean exit — the job keeps running server-side).
func submitCtxErr(ctx context.Context, o *options, jobID, base string) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		if jobID == "" {
			return fmt.Errorf("submit to %s: no response within -submit-timeout %v", base, o.submitTimeout)
		}
		return fmt.Errorf("job %s not finished within -submit-timeout %v (it keeps running on %s)", jobID, o.submitTimeout, base)
	}
	if jobID != "" {
		fmt.Fprintf(os.Stderr, "capbench: detached — job %s keeps running on %s\n", jobID, base)
	}
	return nil
}

// jobStatus fetches the coordinator's status document for one job.
func jobStatus(ctx context.Context, client *http.Client, base, jobPath string) (*sweepd.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+jobPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var st sweepd.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
