// The wire protocol between coordinator and workers: small JSON
// messages over HTTP POST.  Everything durable travels as the result
// codec's exact bytes (core.EncodeResult, the fixed-schema, versioned
// format of the checkpoint journals; base64-framed by encoding/json), so
// a result is bit-identical whether it crossed the wire, was restored
// from a journal, or was computed in-process.
package sweepd

import "time"

// Protocol endpoint paths served by the coordinator.  PathJobPrefix
// roots the per-job surface: GET /v1/job/{id} is the job's status
// document, DELETE /v1/job/{id} cancels it (idempotent — cancelling a
// cancelled job succeeds; cancelling a finished one conflicts).
const (
	PathJoin      = "/v1/join"
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathSubmit    = "/v1/submit"
	PathJobPrefix = "/v1/job/"
	PathJobs      = "/v1/jobs"
	PathHealthz   = "/healthz"
	PathLive      = "/healthz/live"
	PathReady     = "/healthz/ready"
	PathState     = "/v1/state"
)

// JoinRequest registers a worker process with the coordinator.
type JoinRequest struct {
	WorkerID string `json:"worker_id"`
	PID      int    `json:"pid"`
}

// JoinReply hands the worker the active job (nil when idle) and the
// dispatch parameters.
type JoinReply struct {
	JobID string   `json:"job_id,omitempty"`
	Job   *JobSpec `json:"job,omitempty"`
	// LeaseTTLMs and HeartbeatMs pace the worker's heartbeats.
	LeaseTTLMs  int64 `json:"lease_ttl_ms"`
	HeartbeatMs int64 `json:"heartbeat_ms"`
	// Drain tells the worker to exit cleanly instead of working.
	Drain bool `json:"drain,omitempty"`
}

// LeaseRequest asks for up to Max cell leases.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Max      int    `json:"max"`
}

// LeaseReply carries the grants.  Wait means "nothing to lease right
// now, poll again"; Rejoin means the worker's job is gone (finished or
// replaced) and it should re-join; Drain means exit.
type LeaseReply struct {
	Leases []Lease `json:"leases,omitempty"`
	Wait   bool    `json:"wait,omitempty"`
	Rejoin bool    `json:"rejoin,omitempty"`
	Drain  bool    `json:"drain,omitempty"`
}

// HeartbeatRequest extends the worker's leases on the listed cells.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	JobID    string   `json:"job_id"`
	CellKeys []string `json:"cell_keys"`
}

// HeartbeatReply reports leases the worker no longer holds; Drain asks
// it to wind down after the in-flight cell.
type HeartbeatReply struct {
	Cancelled []string `json:"cancelled,omitempty"`
	Drain     bool     `json:"drain,omitempty"`
}

// ResultRequest reports the outcomes of a batch of leased cells in one
// message.  JobID stays at the top level so a request is attributable
// to its job without reading the batch.  Released lists the batch's
// cells a worker stopping mid-batch gives back unrun; the coordinator
// re-queues them without charging a kill.  A body with neither is what
// a single-cell worker from before batching sends; the coordinator
// refuses it with 400 rather than silently dropping the cell.
type ResultRequest struct {
	WorkerID string       `json:"worker_id"`
	JobID    string       `json:"job_id"`
	Results  []CellResult `json:"results"`
	Released []string     `json:"released,omitempty"`
}

// CellResult is one cell's outcome within a batch.  OK results carry
// the checkpoint-codec payload; failures carry the error instead (the
// worker survived — its executor contained the panic or hang).
type CellResult struct {
	CellIndex int    `json:"cell_index"`
	CellKey   string `json:"cell_key"`
	OK        bool   `json:"ok"`
	Payload   []byte `json:"payload,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ResultReply acknowledges a batch, one ack per cell in request order.
type ResultReply struct {
	Acks []ResultAck `json:"acks"`
}

// ResultAck acknowledges one cell.  Accepted is false when the cell
// does not belong to the coordinator's current job; First is true when
// this result is the one the sweep keeps (duplicates of an
// already-committed cell report First=false and are dropped).
type ResultAck struct {
	Accepted bool `json:"accepted"`
	First    bool `json:"first"`
}

// SubmitReply acknowledges a job submission.  Duplicate marks a
// replay: the spec's identity (or its idempotency key) matched a job
// the coordinator already holds, and that job is returned instead of
// a second enqueue.
type SubmitReply struct {
	JobID     string `json:"job_id"`
	Cells     int    `json:"cells"`
	State     string `json:"state"`
	Position  int    `json:"position,omitempty"` // 1-based queue position (queued only)
	Duplicate bool   `json:"duplicate,omitempty"`
}

// JobStatus is the GET /v1/job/{id} document: lifecycle state,
// queue position, the table census and the final report once terminal.
type JobStatus struct {
	JobID    string      `json:"job_id"`
	Name     string      `json:"name"`
	Tenant   string      `json:"tenant,omitempty"`
	State    string      `json:"state"`              // queued | active | done | cancelled
	Position int         `json:"position,omitempty"` // 1-based queue position (queued only)
	Counts   TableCounts `json:"counts"`
	Finished bool        `json:"finished"`
	Report   *JobReport  `json:"report,omitempty"`
}

// JobsReply lists every job the coordinator knows this lifetime plus
// what it recovered from the state journal, submission order.
type JobsReply struct {
	Jobs []JobStatus `json:"jobs"`
}

// CancelReply acknowledges a DELETE /v1/job/{id}.
type CancelReply struct {
	JobID     string `json:"job_id"`
	State     string `json:"state"` // always "cancelled"
	Cancelled bool   `json:"cancelled"`
	// AlreadyCancelled marks an idempotent replay of a prior cancel.
	AlreadyCancelled bool `json:"already_cancelled,omitempty"`
	// LeasesRevoked counts leases outstanding at cancel time; their
	// holders learn on next heartbeat and abandon the cells without
	// reporting them as failures.
	LeasesRevoked int `json:"leases_revoked"`
}

// JobReport is the job's durable summary, written as jobreport.json
// next to the aggregation artifacts.  Degraded mirrors the runtime's
// DegradedRun semantics one level up: the sweep completed, but
// quarantined cells are missing from the surface and listed here.
type JobReport struct {
	JobID       string            `json:"job_id"`
	Name        string            `json:"name"`
	Identity    string            `json:"identity"`
	Cells       int               `json:"cells"`
	Done        int               `json:"done"`
	Resumed     int               `json:"resumed"`
	Degraded    bool              `json:"degraded"`
	Quarantined []QuarantinedCell `json:"quarantined,omitempty"`
	Stolen      int               `json:"cells_stolen"`
	Expired     int               `json:"leases_expired"`
	// Drained marks a job sealed by graceful shutdown before every cell
	// was terminal; a restarted coordinator resumes the remainder.
	Drained bool `json:"drained,omitempty"`
}

// HealthzReply is the /healthz document (liveness + a queue summary;
// /healthz/ready serves the readiness half with a real status code).
type HealthzReply struct {
	// Status is "idle" (no job), "ok" (dispatching), "degraded"
	// (dispatching with quarantined cells) or "draining".
	Status  string      `json:"status"`
	JobID   string      `json:"job_id,omitempty"`
	Workers int         `json:"workers"`
	Counts  TableCounts `json:"counts"`
	// QueueDepth / QueueMax describe the job queue; Accepting is the
	// readiness condition (/healthz/ready answers 503 when false):
	// not draining and the queue has room.
	QueueDepth int  `json:"queue_depth"`
	QueueMax   int  `json:"queue_max"`
	Accepting  bool `json:"accepting"`
}

// ReadyReply is the /healthz/ready body.
type ReadyReply struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// StateReply is the /v1/state debug document.
type StateReply struct {
	Healthz HealthzReply      `json:"healthz"`
	Workers []WorkerSnapshot  `json:"workers,omitempty"`
	Quar    []QuarantinedCell `json:"quarantined,omitempty"`
}

// WorkerSnapshot is one registered worker's liveness view.
type WorkerSnapshot struct {
	ID          string    `json:"id"`
	PID         int       `json:"pid"`
	JoinedAt    time.Time `json:"joined_at"`
	LastSeen    time.Time `json:"last_seen"`
	CellsServed int       `json:"cells_served"`
}
