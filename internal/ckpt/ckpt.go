// Package ckpt persists sweep progress so a crashed, killed or
// interrupted grid can resume without re-running finished cells.
//
// A checkpoint is a directory holding two files:
//
//   - manifest.json — the sweep's identity (a caller-built string over
//     everything that changes cell results: experiment, root seed,
//     scale, scheduler, fault spec) plus its SHA-256, written once,
//     atomically (write-temp-fsync-rename via fsutil).  Resume refuses
//     a manifest whose identity hash differs: a journal from a
//     different grid must never donate results.
//   - journal.jsonl — an append-only record log, one JSON object per
//     line.  Records map a cell's stable key to its status and, for
//     completed cells, an opaque payload (the encoded result) with its
//     SHA-256 digest.  A line is exactly what json.Marshal writes for
//     its Record; this package encodes and decodes it with its own
//     codec (line.go), and DecodeRecord is the one decoder other
//     packages read journals with.
//
// Durability point: a Commit is fsynced before it returns, unless a
// group-commit scope is open (Defer), in which case the scope's Sync
// makes every record appended inside it durable with one fsync.  A
// caller that acknowledges a record to anyone else must do so only
// after that record's durability point.
//
// Crash model: a SIGKILL can land between any two syscalls.  Appends
// are therefore self-delimiting (newline-framed JSON) and the loader
// stops at the first torn or corrupt line — every record before it
// reached the file intact, everything after it is re-run.  A line
// counts only if it is the canonical encoding of the record it decodes
// to; any other line is torn or corrupt.  Payload digests are verified
// at load, so a corrupt-but-canonical record degrades to "absent" (the
// cell re-runs) rather than resurrecting bad bytes.  Resume and Open cut
// the writer's own journal back to the end of its last accepted line
// before the first append, so a new record never joins a torn tail on
// one line; other writers' journals are never touched.  The worst
// outcome of any crash is repeated work, never wrong results.
//
// The open journal holds an exclusive advisory flock, so two live
// processes can never interleave appends into one checkpoint; the
// kernel drops the lock when the holder dies, so even a SIGKILL'd
// writer never blocks a later resume.
//
// Writer namespaces: Open names the writer, whose journal file is
// journal-<writer>.jsonl under the directory's manifest and keeps the
// single-writer guarantees above — exclusive flock, append-only,
// durable before acknowledged.  The sweep service's coordinator is the
// only writer of a job's cells ("coord"); its workers keep no journal.
// Resume still loads the union of every journal in the directory, so a
// job directory that workers of an earlier version also journalled
// into stays resumable.  Two journals can hold the same cell; the
// determinism contract makes their payloads byte-identical, so the
// merge prefers any StatusDone record for a key over non-Done records
// and is otherwise order-insensitive.
package ckpt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fsutil"
)

// Status is a cell's lifecycle state in the journal.
type Status string

// The journal statuses.  Only StatusDone records carry a payload and
// are skipped on resume; every other status documents why the cell
// will run again.
const (
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusHung     Status = "hung"
	StatusPanicked Status = "panicked"
)

// Manifest identifies the sweep a journal belongs to.
type Manifest struct {
	// Version is the journal format version.
	Version int `json:"version"`
	// Identity is the human-readable sweep identity the caller built
	// from everything that changes cell results.
	Identity string `json:"identity"`
	// IdentityHash is the SHA-256 of Identity, the value Resume compares.
	IdentityHash string `json:"identity_hash"`
	// RootSeed echoes the sweep's root seed (informational; the seed is
	// part of Identity too).
	RootSeed int64 `json:"root_seed"`
}

// Record is one journal entry: the latest entry per key wins.
type Record struct {
	// Key is the cell's stable identity string.
	Key string `json:"key"`
	// Status is the cell's state.
	Status Status `json:"status"`
	// Digest is the hex SHA-256 of Payload ("" when no payload).
	Digest string `json:"digest,omitempty"`
	// Payload is the encoded result for StatusDone cells.
	Payload []byte `json:"payload,omitempty"`
	// Error describes the failure for failed/hung/panicked cells.
	Error string `json:"error,omitempty"`
}

const (
	manifestName = "manifest.json"
	journalName  = "journal.jsonl"
	version      = 1
)

// Journal is an open checkpoint.  Commit is safe for concurrent use by
// pool workers.
type Journal struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	records  map[string]Record
	resumed  int
	deferred int    // open group-commit scopes (Defer without its Sync)
	dirty    bool   // records appended since the last fsync
	line     []byte // Commit's encoding buffer, reused under mu
}

// HashIdentity returns the hex SHA-256 of an identity string.
func HashIdentity(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return hex.EncodeToString(sum[:])
}

// Create starts a fresh checkpoint in dir (created if missing).  It
// refuses a directory that already holds a manifest: overwriting an
// existing journal silently would discard resumable work — callers must
// pass resume intent explicitly (Resume) or clear the directory.
func Create(dir string, m Manifest) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mpath := filepath.Join(dir, manifestName)
	if _, err := os.Stat(mpath); err == nil {
		return nil, fmt.Errorf("ckpt: %s already holds a checkpoint (resume it or remove the directory)", dir)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return open(dir, "", false)
}

// Resume opens an existing checkpoint, verifying its identity hash
// matches m's.  Committed records from every journal in the directory
// — the classic journal.jsonl and any writer-namespaced journals a
// sweep service left behind — become available through Lookup; torn or
// digest-corrupt entries are dropped (their cells re-run).
func Resume(dir string, m Manifest) (*Journal, error) {
	if err := verifyManifest(dir, m); err != nil {
		return nil, err
	}
	return open(dir, "", true)
}

// Open opens a checkpoint for one named writer of a multi-process
// sweep: the manifest is created atomically if absent and verified
// against m otherwise, records from every journal in the directory are
// loaded, and this writer's commits append to its own
// journal-<writer>.jsonl under its own exclusive flock.  Unlike
// Create, Open tolerates an existing checkpoint — that is the point:
// coordinator and workers all Open the same directory, each under a
// distinct writer name.  An empty writer uses the classic journal.jsonl
// (and so collides with Create/Resume holders, by design).
func Open(dir string, m Manifest, writer string) (*Journal, error) {
	if err := validWriter(writer); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); os.IsNotExist(err) {
		if err := writeManifest(dir, m); err != nil {
			return nil, err
		}
	}
	// Verify even after writing: two racing writers both observing "no
	// manifest" must still end up under one identity — whoever's atomic
	// rename lost rechecks the winner's content here.
	if err := verifyManifest(dir, m); err != nil {
		return nil, err
	}
	return open(dir, writer, true)
}

// validWriter bounds writer names to filename-safe characters so a
// namespaced journal cannot escape the checkpoint directory.
func validWriter(writer string) error {
	for _, r := range writer {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("ckpt: writer name %q: only [A-Za-z0-9._-] allowed", writer)
		}
	}
	return nil
}

// journalFile names a writer's journal within the checkpoint dir.
func journalFile(writer string) string {
	if writer == "" {
		return journalName
	}
	return "journal-" + writer + ".jsonl"
}

// writeManifest stamps and writes the manifest atomically.
func writeManifest(dir string, m Manifest) error {
	m.Version = version
	m.IdentityHash = HashIdentity(m.Identity)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

// verifyManifest checks the on-disk manifest carries m's identity.
func verifyManifest(dir string, m Manifest) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("ckpt: no checkpoint to resume in %s: %w", dir, err)
	}
	var have Manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("ckpt: corrupt manifest in %s: %w", dir, err)
	}
	if have.Version != version {
		return fmt.Errorf("ckpt: manifest version %d, want %d", have.Version, version)
	}
	if have.IdentityHash != HashIdentity(m.Identity) {
		return fmt.Errorf("ckpt: checkpoint in %s belongs to a different sweep:\n  have: %s\n  want: %s",
			dir, have.Identity, m.Identity)
	}
	return nil
}

// open finishes construction: the writer's journal file is opened
// append-only and flocked, so a second live process cannot interleave
// its appends with ours (the lock dies with the process, so it never
// outlives a crash).  With load set, the directory is then replayed
// under that lock.
func open(dir, writer string, load bool) (*Journal, error) {
	name := filepath.Join(dir, journalFile(writer))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{dir: dir, f: f, records: make(map[string]Record)}
	if load {
		if err := j.load(name); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load merges every journal in the directory into j.records, filename
// order, and trims own, the writer's journal, to its accepted prefix:
// a torn tail left there would join the next record on one line and
// hide it, and everything after it, from every later replay.  Within
// one file the last record per key wins (the single-writer
// replay rule); across files a StatusDone record is never displaced by
// a non-Done one — a second writer re-running a straggler commits
// "running" after the first writer's "done", and the done result
// (byte-identical by the determinism contract wherever it was computed)
// must survive the merge.
func (j *Journal) load(own string) error {
	names, err := filepath.Glob(filepath.Join(j.dir, "journal*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		records, accepted, err := loadJournal(name)
		if err != nil {
			return err
		}
		for key, r := range records {
			if have, ok := j.records[key]; ok && have.Status == StatusDone && r.Status != StatusDone {
				continue
			}
			j.records[key] = r
		}
		if name == own {
			if err := accepted.trim(j.f); err != nil {
				return fmt.Errorf("ckpt: trimming %s: %w", name, err)
			}
		}
	}
	return nil
}

// prefix is the part of a journal file a replay accepted: its first
// size bytes, which end in a newline unless newline is false (the
// last accepted line reached the end of the file without one).
type prefix struct {
	size    int64
	newline bool
}

// trim cuts the journal open as f back to p and ends it with a newline,
// so the next append starts a line of its own.
func (p prefix) trim(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == p.size && (p.size == 0 || p.newline) {
		return nil // a clean journal, the common case
	}
	if err := f.Truncate(p.size); err != nil {
		return err
	}
	if p.size > 0 && !p.newline {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return f.Sync()
}

// loadJournal replays a record log, last record per key winning, and
// reports the prefix of the file it accepted.  The scan stops at the
// first line that is not a canonical record: records are only ever
// appended, so corruption can only be a torn tail.
func loadJournal(path string) (map[string]Record, prefix, error) {
	records := make(map[string]Record)
	var accepted prefix
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return records, accepted, nil
	}
	if err != nil {
		return nil, accepted, err
	}
	defer f.Close()
	var next prefix // the end of the line the scanner last returned
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<28)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			next = prefix{next.size + int64(adv), data[adv-1] == '\n'}
		}
		return adv, tok, err
	})
	var scratch []byte
	for sc.Scan() {
		if line := sc.Bytes(); len(line) != 0 {
			var r Record
			if r, scratch, err = decodeRecord(line, scratch); err != nil {
				break // torn tail: everything after the last fsync re-runs
			}
			if r.Status == StatusDone && r.Digest != hashPayload(r.Payload) {
				// Canonical but corrupt payload: forget the cell entirely
				// so the stale record below it cannot resurface either.
				delete(records, r.Key)
			} else {
				records[r.Key] = r
			}
		}
		accepted = next
	}
	return records, accepted, sc.Err()
}

func hashPayload(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// Dir reports the checkpoint directory.
func (j *Journal) Dir() string { return j.dir }

// Records returns a copy of every record currently visible through
// Lookup — loaded at open plus committed since — sorted by key.  The
// sweep-service coordinator replays its durable state through this.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.records))
	for _, r := range j.records {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key < out[k].Key })
	return out
}

// Lookup reports the latest committed record for key.
func (j *Journal) Lookup(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.records[key]
	return r, ok
}

// Done reports how many cells currently have a StatusDone record.
func (j *Journal) Done() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.records {
		if r.Status == StatusDone {
			n++
		}
	}
	return n
}

// Resumed reports how many Lookup hits were served from a prior run's
// records (counted by MarkResumed).
func (j *Journal) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// MarkResumed counts one cell skipped from a prior run's record.
func (j *Journal) MarkResumed() {
	j.mu.Lock()
	j.resumed++
	j.mu.Unlock()
}

// Commit appends a record and fsyncs it: once Commit returns, the
// record survives any crash.  Inside a group-commit scope (Defer) the
// fsync is left to the scope's Sync.  For StatusDone records the
// digest is computed here; callers supply only the payload.
func (j *Journal) Commit(r Record) error {
	if r.Key == "" {
		return fmt.Errorf("ckpt: record without key")
	}
	if r.Status == StatusDone {
		r.Digest = hashPayload(r.Payload)
	}
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("ckpt: journal closed")
	}
	j.line = append(commitLine(j.line[:0], r), '\n')
	if _, err := j.f.Write(j.line); err != nil {
		j.mu.Unlock()
		return err
	}
	j.dirty = true
	if j.deferred == 0 {
		if err := j.syncLocked(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	j.records[r.Key] = r
	j.mu.Unlock()
	return nil
}

// Defer opens a group-commit scope: until the matching Sync, Commit
// appends without fsyncing, and the records it appends become durable
// together at Sync.  Scopes may overlap (concurrent batches on one
// journal); a Commit made while any scope is open is durable once the
// Sync of a scope that was open at the time returns.  Every Defer must
// be paired with exactly one Sync.
func (j *Journal) Defer() {
	j.mu.Lock()
	j.deferred++
	j.mu.Unlock()
}

// Sync closes a group-commit scope opened by Defer and fsyncs every
// record appended since the last fsync — one fsync for the whole batch,
// none when a concurrent scope's Sync already covered it.  Sync on a
// closed journal succeeds: Close synced everything it held.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.deferred > 0 {
		j.deferred--
	}
	if j.f == nil {
		return nil
	}
	return j.syncLocked()
}

// syncLocked fsyncs pending appends; j.mu must be held.
func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	return nil
}

// Close flushes and closes the journal file.  Lookup keeps working on
// the in-memory records; Commit fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
