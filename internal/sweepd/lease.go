// The lease state machine: the coordinator's in-memory authority over
// which process owns which cell, with deadlines, bounded retry,
// failure budgets and straggler stealing.
//
// A cell moves through pending → leased → done, with two repair loops:
// a lease whose holder stops heartbeating expires (the cell re-queues
// with exponential backoff and the loss counts against the cell's kill
// budget), and a worker-contained failure (the cell panicked or hung
// inside the worker's executor, which survived) re-queues the cell and
// counts against its attempt budget.  Either budget exhausting
// quarantines the cell as poisoned: the sweep completes around it and
// reports it as degraded partial output instead of retrying forever.
//
// An expiry is a verdict of death passed on silence alone, so it is
// revisable: if the expired holder later proves alive — its next
// heartbeat or report arrives — the kill charged for that expiry is
// retracted (the holder was late, not dead), and a quarantine that
// rested on it is lifted.  Without retraction, a loaded machine whose
// heartbeats stretch past the TTL would poison its slowest healthy
// cells; with it, the kill budget counts only holders never heard from
// again.  A worker confirmed dead (WorkerLost) keeps its kills.
//
// First result wins.  A straggler cell may legitimately hold two live
// leases (work-stealing), and an expired holder may still finish and
// report late — the determinism contract makes every copy of a cell's
// result byte-identical, so the table accepts the first completion and
// drops the rest.  A late success even lifts a quarantine: a result in
// hand always beats a verdict of "unrunnable".
//
// The table is pure bookkeeping: no goroutines, no wall-clock reads of
// its own (the clock is injected), no I/O.  Every mutation returns the
// structured events it implies; the coordinator publishes them.  That
// is what the kill-schedule property tests drive.
package sweepd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// LeaseConfig tunes the dispatch state machine.
type LeaseConfig struct {
	// TTL is how long a granted lease lives without a heartbeat.
	TTL time.Duration
	// MaxFailures quarantines a cell after this many worker-contained
	// failures (in-executor panic or hang reported by a live worker).
	MaxFailures int
	// KillBudget quarantines a cell after this many holder losses
	// (worker process death or lease expiry while holding it).
	KillBudget int
	// BackoffBase/BackoffMax bound the exponential re-queue delay.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StealAfter is the minimum age of a lease before it can be stolen;
	// StealP95Factor additionally requires the lease to be older than
	// factor × the p95 completed-cell duration when one is known (the
	// obs progress tracker supplies it).
	StealAfter     time.Duration
	StealP95Factor float64
	// MaxHolders bounds concurrent leases per cell (straggler + thief).
	MaxHolders int
}

// withDefaults fills the zero fields.
func (c LeaseConfig) withDefaults() LeaseConfig {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Second
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 3
	}
	if c.KillBudget <= 0 {
		c.KillBudget = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 10 * time.Second
	}
	if c.StealP95Factor <= 0 {
		c.StealP95Factor = 3
	}
	if c.MaxHolders <= 0 {
		c.MaxHolders = 2
	}
	return c
}

// Lease is one grant: cell index + key (the worker verifies the key
// against its own expansion before running) and the deadline by which
// a heartbeat must arrive.
type Lease struct {
	CellIndex int       `json:"cell_index"`
	CellKey   string    `json:"cell_key"`
	Attempt   int       `json:"attempt"`
	Deadline  time.Time `json:"-"`
	Stolen    bool      `json:"stolen,omitempty"`
	// Regrant marks an idempotent re-grant: the worker already held this
	// cell (a duplicated or retried Acquire), so the deadline refreshed
	// but nothing else changed — no attempt charged, no event emitted.
	Regrant bool `json:"regrant,omitempty"`
}

// QuarantinedCell reports one poisoned cell in the job's final output.
type QuarantinedCell struct {
	Key      string `json:"key"`
	Reason   string `json:"reason"`
	Kills    int    `json:"kills"`
	Failures int    `json:"failures"`
}

// TableCounts is the table's live census.
type TableCounts struct {
	Total       int `json:"cells_total"`
	Done        int `json:"cells_done"`
	Pending     int `json:"cells_pending"`
	InFlight    int `json:"cells_in_flight"`
	Quarantined int `json:"cells_quarantined"`
	Leases      int `json:"leases_outstanding"`
	Stolen      int `json:"cells_stolen_total"`
	Expired     int `json:"leases_expired_total"`
}

// cellSlot is one cell's dispatch state.
type cellSlot struct {
	idx         int
	key         string
	done        bool
	quarantined bool
	quarReason  string
	attempts    int // leases ever granted
	failures    int // worker-contained failures reported
	kills       int // holders lost (death or expiry)
	notBefore   time.Time
	firstGrant  time.Time
	holders     map[string]time.Time // worker id -> heartbeat deadline
	expiredBy   map[string]int       // worker id -> expiry kills not yet confirmed by death
	lastError   string
}

// inFlight reports whether the cell currently has live holders.
func (c *cellSlot) inFlight() bool { return len(c.holders) > 0 }

// terminal reports whether the cell needs no further dispatch.
func (c *cellSlot) terminal() bool { return c.done || c.quarantined }

// Table is the lease state machine.  Safe for concurrent use; every
// mutating call returns the obs events it implies so the caller can
// publish them outside the lock.
type Table struct {
	mu      sync.Mutex
	cfg     LeaseConfig
	now     func() time.Time
	cells   []*cellSlot
	byKey   map[string]*cellSlot
	done    int
	quar    int
	stolen  int
	expired int
	fleet   int // workers sharing the job; see SetFleet
}

// NewTable builds a table over the job's cell keys in index order.
func NewTable(keys []string, cfg LeaseConfig) *Table {
	t := &Table{
		cfg:   cfg.withDefaults(),
		now:   time.Now,
		cells: make([]*cellSlot, len(keys)),
		byKey: make(map[string]*cellSlot, len(keys)),
	}
	for i, key := range keys {
		c := &cellSlot{idx: i, key: key, holders: make(map[string]time.Time)}
		t.cells[i] = c
		t.byKey[key] = c
	}
	return t
}

// SetClock injects a deterministic clock (tests).
func (t *Table) SetClock(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// RestoreDone marks a cell completed from a resumed journal, before
// dispatch begins.  Reports whether the key names a known cell.
func (t *Table) RestoreDone(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byKey[key]
	if !ok || c.terminal() {
		return ok
	}
	c.done = true
	t.done++
	return true
}

// SetFleet tells the table how many workers share the job.  With more
// than one, Acquire caps each fresh grant at ceil(pending / (2 ×
// fleet)) cells — factoring: every round of requests hands out about
// half of what is pending, split evenly — so a short job spreads over
// the fleet instead of piling onto whoever asks first, and batches
// shrink as the job drains, leaving a heavy cell at the end little to
// hold up.  A fleet of one (or an unset fleet) leaves grants at max.
func (t *Table) SetFleet(n int) {
	t.mu.Lock()
	t.fleet = n
	t.mu.Unlock()
}

// backoff is the re-queue delay after the n-th loss (1-based).
func (t *Table) backoff(n int) time.Duration {
	d := t.cfg.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= t.cfg.BackoffMax {
			return t.cfg.BackoffMax
		}
	}
	if d > t.cfg.BackoffMax {
		d = t.cfg.BackoffMax
	}
	return d
}

// Acquire grants up to max leases to a worker: pending cells first (in
// index order, respecting backoff gates, at most one of them a cell
// that has lost a holder before, and no more than the worker's fair
// share — see SetFleet), then — only when nothing is pending — one
// stolen lease on the oldest straggler past the steal threshold.  p95
// is the tracker's completed-cell p95 duration (0 when unknown).  An
// idempotent re-grant hands back every cell the worker holds, up to
// max, whatever the share.
func (t *Table) Acquire(worker string, max int, p95 time.Duration) ([]Lease, []obs.Event) {
	if max <= 0 {
		max = 1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()

	var leases []Lease
	var events []obs.Event

	// Idempotent re-grant first: a worker retrying an Acquire whose
	// reply the network lost (or whose delivery was duplicated) already
	// holds leases — hand those same cells back with refreshed deadlines
	// instead of granting different ones.  Without this, every replayed
	// Acquire would fan the worker out across extra cells, each a ghost
	// lease destined to expire and charge an innocent kill budget.
	for _, c := range t.cells {
		if len(leases) >= max {
			break
		}
		if c.terminal() {
			continue
		}
		if _, held := c.holders[worker]; !held {
			continue
		}
		c.holders[worker] = now.Add(t.cfg.TTL)
		leases = append(leases, Lease{
			CellIndex: c.idx, CellKey: c.key, Attempt: c.attempts,
			Deadline: now.Add(t.cfg.TTL), Regrant: true,
		})
	}
	if len(leases) > 0 {
		return leases, events
	}

	grant := func(c *cellSlot, stolen bool) {
		c.attempts++
		c.holders[worker] = now.Add(t.cfg.TTL)
		if c.firstGrant.IsZero() {
			c.firstGrant = now
		}
		leases = append(leases, Lease{
			CellIndex: c.idx, CellKey: c.key, Attempt: c.attempts,
			Deadline: now.Add(t.cfg.TTL), Stolen: stolen,
		})
		typ := obs.LeaseGranted
		if stolen {
			typ = obs.CellStolen
			t.stolen++
		}
		events = append(events, obs.Event{Type: typ, Cell: c.key, Detail: worker})
	}

	// Suspect isolation: a worker that dies charges a kill to every cell
	// it held, so a batch that pairs a poisoned cell with innocent ones
	// burns the innocents' budgets too.  One grant therefore holds at
	// most one cell that has already lost a holder — the one with the
	// most kills, lowest index on ties — and fills the rest with cells
	// that never have.  Once a poisoned cell has taken one holder down,
	// every later crash it causes charges it plus only cells with a
	// clean record, so no bystander is charged twice for it.
	leasable := func(c *cellSlot) bool {
		return !c.terminal() && !c.inFlight() && !now.Before(c.notBefore)
	}
	limit := max
	if t.fleet > 1 {
		pending := 0
		for _, c := range t.cells {
			if !c.terminal() && !c.inFlight() {
				pending++
			}
		}
		if share := (pending + 2*t.fleet - 1) / (2 * t.fleet); share < limit {
			limit = share
		}
	}
	var suspect *cellSlot
	for _, c := range t.cells {
		if c.kills > 0 && leasable(c) && (suspect == nil || c.kills > suspect.kills) {
			suspect = c
		}
	}
	if suspect != nil {
		grant(suspect, false)
	}
	for _, c := range t.cells {
		if len(leases) >= limit {
			break
		}
		if c.kills == 0 && leasable(c) {
			grant(c, false)
		}
	}

	if len(leases) == 0 {
		// Nothing pending: steal the oldest straggler lease, if any is old
		// enough.  One steal per call keeps thieves from piling onto the
		// same cell within a single poll round.
		threshold := t.cfg.StealAfter
		if p95 > 0 {
			if byP95 := time.Duration(float64(p95) * t.cfg.StealP95Factor); byP95 > threshold {
				threshold = byP95
			}
		}
		var victim *cellSlot
		for _, c := range t.cells {
			if c.terminal() || !c.inFlight() || len(c.holders) >= t.cfg.MaxHolders {
				continue
			}
			if _, held := c.holders[worker]; held {
				continue
			}
			if now.Sub(c.firstGrant) < threshold {
				continue
			}
			if victim == nil || c.firstGrant.Before(victim.firstGrant) {
				victim = c
			}
		}
		if victim != nil {
			grant(victim, true)
		}
	}
	return leases, events
}

// retractExpiryLocked withdraws the expiry kills charged against a
// cell for a holder that has since proven alive: the silence was
// latency, not death.  A quarantine that no longer clears either
// budget is lifted and the cell re-queued.  Caller holds the lock.
func (t *Table) retractExpiryLocked(c *cellSlot, worker string, now time.Time) {
	n := c.expiredBy[worker]
	if n == 0 {
		return
	}
	delete(c.expiredBy, worker)
	c.kills -= n
	if c.kills < 0 {
		c.kills = 0
	}
	if c.quarantined && c.kills < t.cfg.KillBudget && c.failures < t.cfg.MaxFailures {
		c.quarantined = false
		c.quarReason = ""
		t.quar--
		c.notBefore = now.Add(t.backoff(c.failures + c.kills + 1))
	}
}

// Heartbeat extends the worker's lease deadlines for the given cell
// keys and returns the keys the worker no longer holds (expired or
// reassigned) so it can stop wasting cycles on them if it wants to —
// finishing anyway is harmless, late results are simply dropped.  A
// heartbeat from an expired holder is proof of life: the expiry's kill
// is retracted (see retractExpiryLocked).
func (t *Table) Heartbeat(worker string, keys []string) (cancelled []string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range keys {
		c, ok := t.byKey[key]
		if !ok {
			cancelled = append(cancelled, key)
			continue
		}
		t.retractExpiryLocked(c, worker, now)
		if c.terminal() {
			cancelled = append(cancelled, key)
			continue
		}
		if _, held := c.holders[worker]; !held {
			cancelled = append(cancelled, key)
			continue
		}
		c.holders[worker] = now.Add(t.cfg.TTL)
	}
	return cancelled
}

// Release gives back leases a live worker never ran to completion —
// it is stopping mid-batch.  Unlike an expiry, a release charges
// nothing: the holder is alive and says so, and the cells re-queue at
// once.  Keys the worker does not hold are ignored.
func (t *Table) Release(worker string, keys []string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range keys {
		c, ok := t.byKey[key]
		if !ok {
			continue
		}
		t.retractExpiryLocked(c, worker, now)
		delete(c.holders, worker)
	}
}

// Complete records a worker's report for a cell.  ok=true is a result
// in hand: the first one wins (first=true), duplicates and results for
// unknown keys are dropped.  ok=false is a worker-contained failure:
// the cell re-queues with backoff until its failure budget exhausts,
// then quarantines.
func (t *Table) Complete(worker, key string, ok bool, errMsg string) (first bool, events []obs.Event) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c, found := t.byKey[key]
	if !found {
		return false, nil
	}
	t.retractExpiryLocked(c, worker, now)
	delete(c.holders, worker)
	if c.done {
		return false, nil
	}
	if ok {
		if c.quarantined {
			// A late result beats the poison verdict: un-quarantine.
			c.quarantined = false
			c.quarReason = ""
			t.quar--
		}
		c.done = true
		t.done++
		return true, nil
	}
	c.failures++
	c.lastError = errMsg
	if c.failures >= t.cfg.MaxFailures {
		events = t.quarantineLocked(c, fmt.Sprintf("%d worker-contained failure(s), last: %s", c.failures, errMsg))
		return false, events
	}
	c.notBefore = now.Add(t.backoff(c.failures + c.kills))
	return false, events
}

// WorkerLost releases every lease the worker held: each affected cell
// charges its kill budget and either re-queues with backoff or, with
// the budget exhausted, quarantines as poisoned.
func (t *Table) WorkerLost(worker string) []obs.Event {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var events []obs.Event
	for _, c := range t.cells {
		// Death confirmed: any expiry kills pending retraction for this
		// worker become final.
		delete(c.expiredBy, worker)
		if _, held := c.holders[worker]; !held {
			continue
		}
		delete(c.holders, worker)
		if c.terminal() {
			continue
		}
		c.kills++
		if c.kills >= t.cfg.KillBudget {
			events = append(events, t.quarantineLocked(c,
				fmt.Sprintf("poisoned: lost %d worker(s) while running it", c.kills))...)
			continue
		}
		if !c.inFlight() {
			c.notBefore = now.Add(t.backoff(c.failures + c.kills))
		}
	}
	return events
}

// ExpireLeases sweeps heartbeat deadlines: an expired holder is
// treated like a lost worker, but only for that lease, and only
// provisionally — the kill is charged now and retracted if the holder
// proves alive later (retractExpiryLocked).
func (t *Table) ExpireLeases() []obs.Event {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var events []obs.Event
	for _, c := range t.cells {
		for worker, deadline := range c.holders {
			if !now.After(deadline) {
				continue
			}
			delete(c.holders, worker)
			t.expired++
			events = append(events, obs.Event{Type: obs.LeaseExpired, Cell: c.key, Detail: worker})
			if c.terminal() {
				continue
			}
			c.kills++
			if c.expiredBy == nil {
				c.expiredBy = make(map[string]int)
			}
			c.expiredBy[worker]++
			if c.kills >= t.cfg.KillBudget {
				events = append(events, t.quarantineLocked(c,
					fmt.Sprintf("poisoned: %d lease(s) expired on it", c.kills))...)
				continue
			}
			if !c.inFlight() {
				c.notBefore = now.Add(t.backoff(c.failures + c.kills))
			}
		}
	}
	return events
}

// quarantineLocked marks a cell poisoned.  Caller holds the lock.
func (t *Table) quarantineLocked(c *cellSlot, reason string) []obs.Event {
	if c.terminal() {
		return nil
	}
	c.quarantined = true
	c.quarReason = reason
	t.quar++
	return []obs.Event{{Type: obs.CellQuarantined, Cell: c.key, Detail: reason}}
}

// Finished reports whether every cell is done or quarantined.
func (t *Table) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done+t.quar == len(t.cells)
}

// Counts reports the live census.
func (t *Table) Counts() TableCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := TableCounts{
		Total:       len(t.cells),
		Done:        t.done,
		Quarantined: t.quar,
		Stolen:      t.stolen,
		Expired:     t.expired,
	}
	for _, c := range t.cells {
		counts.Leases += len(c.holders)
		if c.terminal() {
			continue
		}
		if c.inFlight() {
			counts.InFlight++
		} else {
			counts.Pending++
		}
	}
	return counts
}

// BudgetSnapshot captures every cell's burned failure budget — kills,
// worker-contained failures, quarantine verdicts — for the
// coordinator's durable state journal.  Cells with nothing burned are
// omitted, so a healthy sweep snapshots to an empty map.  Provisional
// expiry kills are included at face value (the expiredBy retraction
// ledger is not persisted): after a coordinator restart a late-proving
// holder cannot retract them, which errs toward quarantining a
// borderline cell rather than granting it a fresh budget.
func (t *Table) BudgetSnapshot() map[string]cellBudget {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]cellBudget)
	for _, c := range t.cells {
		if c.kills == 0 && c.failures == 0 && !c.quarantined {
			continue
		}
		out[c.key] = cellBudget{
			Kills:       c.kills,
			Failures:    c.failures,
			Quarantined: c.quarantined,
			Reason:      c.quarReason,
		}
	}
	return out
}

// RestoreBudgets replays a BudgetSnapshot into a fresh table before
// dispatch begins, so a restarted coordinator does not grant a
// poisoned cell a new budget to burn another fleet with.  Unknown keys
// and already-terminal cells are ignored.
func (t *Table) RestoreBudgets(budgets map[string]cellBudget) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, b := range budgets {
		c, ok := t.byKey[key]
		if !ok || c.terminal() {
			continue
		}
		c.kills = b.Kills
		c.failures = b.Failures
		if b.Quarantined {
			c.quarantined = true
			c.quarReason = b.Reason
			if c.quarReason == "" {
				c.quarReason = "quarantined before coordinator restart"
			}
			t.quar++
		}
	}
}

// Quarantined lists the poisoned cells, key-sorted for stable output.
func (t *Table) Quarantined() []QuarantinedCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []QuarantinedCell
	for _, c := range t.cells {
		if c.quarantined {
			out = append(out, QuarantinedCell{
				Key: c.key, Reason: c.quarReason, Kills: c.kills, Failures: c.failures,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
