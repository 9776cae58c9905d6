package ckpt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCreateCommitResume(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "grid|seed=7", RootSeed: 7}
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("encoded result bytes")
	for _, r := range []Record{
		{Key: "a", Status: StatusRunning},
		{Key: "a", Status: StatusDone, Payload: payload},
		{Key: "b", Status: StatusRunning},
		{Key: "c", Status: StatusFailed, Error: "boom"},
	} {
		if err := j.Commit(r); err != nil {
			t.Fatalf("commit %v: %v", r, err)
		}
	}
	if n := j.Done(); n != 1 {
		t.Errorf("Done() = %d, want 1", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "d", Status: StatusRunning}); err == nil {
		t.Error("Commit after Close succeeded")
	}

	r, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, ok := r.Lookup("a")
	if !ok || rec.Status != StatusDone || string(rec.Payload) != string(payload) {
		t.Errorf("Lookup(a) = %+v, %v; want the done record back", rec, ok)
	}
	if rec, ok := r.Lookup("b"); !ok || rec.Status != StatusRunning {
		t.Errorf("Lookup(b) = %+v, %v; want the in-flight marker", rec, ok)
	}
	if rec, ok := r.Lookup("c"); !ok || rec.Status != StatusFailed || rec.Error != "boom" {
		t.Errorf("Lookup(c) = %+v, %v; want the failure record", rec, ok)
	}
	if n := r.Done(); n != 1 {
		t.Errorf("resumed Done() = %d, want 1", n)
	}
}

func TestCreateRefusesExistingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "x"}
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Create(dir, m); err == nil {
		t.Error("Create over an existing checkpoint succeeded; resumable work would be discarded")
	}
}

func TestResumeIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, Manifest{Identity: "grid|seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Resume(dir, Manifest{Identity: "grid|seed=8"}); err == nil {
		t.Error("Resume accepted a journal from a different sweep")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("mismatch error does not explain itself: %v", err)
	}
	if _, err := Resume(t.TempDir(), Manifest{Identity: "grid|seed=7"}); err == nil {
		t.Error("Resume of an empty directory succeeded")
	}
}

// TestResumeTornTail simulates a SIGKILL mid-append: a partial final
// line must be dropped while every fsynced record before it survives.
func TestResumeTornTail(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "torn"}
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "a", Status: StatusDone, Payload: []byte("pa")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "b", Status: StatusDone, Payload: []byte("pb")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Done(); n != 2 {
		t.Errorf("Done() after torn tail = %d, want 2", n)
	}
	if _, ok := r.Lookup("c"); ok {
		t.Error("torn record resurfaced")
	}
	// The journal stays appendable: Resume cut the torn bytes off, so the
	// next record starts a line of its own.
	if err := r.Commit(Record{Key: "d", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	want := journalLines(
		Record{Key: "a", Status: StatusDone, Payload: []byte("pa")},
		Record{Key: "b", Status: StatusDone, Payload: []byte("pb")},
		Record{Key: "d", Status: StatusRunning})
	if !bytes.Equal(data, want) {
		t.Errorf("journal after torn tail and commit:\n%s\nwant\n%s", data, want)
	}
}

// TestTornTailKeepsLaterCommits: records committed after resuming past a
// torn tail must survive the next resume.  Appending them behind the
// torn bytes put the first on the torn line, where every later replay
// stopped, forgetting them all.
func TestTornTailKeepsLaterCommits(t *testing.T) {
	for _, writer := range []string{"", "w1"} {
		dir := t.TempDir()
		m := Manifest{Identity: "torn-later"}
		reopen := func() *Journal {
			t.Helper()
			var j *Journal
			var err error
			if writer == "" {
				j, err = Resume(dir, m)
			} else {
				j, err = Open(dir, m, writer)
			}
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		j, err := Create(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		j = reopen()
		if err := j.Commit(Record{Key: "a", Status: StatusDone, Payload: []byte("pa")}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		f, err := os.OpenFile(filepath.Join(dir, journalFile(writer)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"key":"c","sta`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j = reopen()
		for _, key := range []string{"d", "e"} {
			if err := j.Commit(Record{Key: key, Status: StatusDone, Payload: []byte("p" + key)}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()

		j = reopen()
		if n := j.Done(); n != 3 {
			t.Errorf("writer %q: Done() after commits past a torn tail = %d, want 3 (a, d, e)", writer, n)
		}
		for _, key := range []string{"d", "e"} {
			if rec, ok := j.Lookup(key); !ok || string(rec.Payload) != "p"+key {
				t.Errorf("writer %q: Lookup(%s) = %+v, %v; want the record committed after the torn tail", writer, key, rec, ok)
			}
		}
		j.Close()
	}
}

// TestOpenLeavesOtherWritersTornTail: a writer trims only its own
// journal.  Another writer's torn tail stays as that writer left it.
func TestOpenLeavesOtherWritersTornTail(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "two-writers"}
	other := append(journalLines(Record{Key: "a", Status: StatusDone, Payload: []byte("pa")}), `{"key":"b","sta`...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile("w2")), other, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, m, "w1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec, ok := j.Lookup("a"); !ok || rec.Status != StatusDone {
		t.Fatalf("Lookup(a) = %+v, %v; want w2's done record", rec, ok)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile("w2")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, other) {
		t.Errorf("w1's open rewrote w2's journal:\n%q\nwant\n%q", data, other)
	}
}

// TestResumeUnterminatedLastLine: a final record whose newline never
// reached the file still counts, and Resume ends its line so the next
// record does not join it.
func TestResumeUnterminatedLastLine(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "unterminated"}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(Record{Key: "a", Status: StatusDone, Payload: []byte("pa")})
	if err := os.WriteFile(filepath.Join(dir, journalName), lines[:len(lines)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if j.Done() != 1 {
		t.Fatalf("Done() = %d, want the unterminated record", j.Done())
	}
	if err := j.Commit(Record{Key: "b", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	r, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup("b"); !ok || r.Done() != 1 {
		t.Errorf("after resume and commit: Lookup(b) %v, Done() %d; want both records", ok, r.Done())
	}
}

// TestParentJournalResumesUnchanged pins the line format: a journal
// written by the encoding/json-based writer of earlier versions
// (testdata/parent, every field combination and the escapes encoding/json
// applies) resumes with every record, each line is byte for byte the
// encoding of the record it holds, and resuming leaves the file as it was.
func TestParentJournalResumesUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{manifestName, journalName} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orig, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(orig, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		r, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("line %d: %v\n%s", i+1, err, line)
		}
		if enc := appendRecord(nil, &r); !bytes.Equal(enc, line) {
			t.Errorf("line %d re-encodes differently:\n got %s\nwant %s", i+1, enc, line)
		}
		if ref, _ := json.Marshal(r); !bytes.Equal(ref, line) {
			t.Errorf("line %d is not what encoding/json writes for its record:\n got %s\nwant %s", i+1, line, ref)
		}
	}
	j, err := Resume(dir, Manifest{Identity: "grid|platform=24-Intel-2-V100|scale=8|seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	if n, want := len(j.Records()), 7; n != want {
		t.Errorf("resumed %d keys, want %d", n, want)
	}
	if n := j.Done(); n != 4 {
		t.Errorf("Done() = %d, want 4", n)
	}
	if rec, ok := j.Lookup("cell <a&b> \"quoted\" \\ back"); !ok || rec.Status != StatusHung {
		t.Errorf("escaped key: %+v, %v", rec, ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Error("resuming a clean journal changed its bytes")
	}
}

// TestResumeDigestCorruption checks that a parseable record whose
// payload no longer matches its digest is forgotten entirely — the key's
// earlier (stale) record must not resurface either.
func TestResumeDigestCorruption(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "corrupt"}
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "a", Status: StatusDone, Payload: []byte("stale result")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "b", Status: StatusDone, Payload: []byte("good result")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append a newer record for "a" whose payload was silently damaged.
	bad, err := json.Marshal(Record{Key: "a", Status: StatusDone, Digest: HashIdentity("something else"), Payload: []byte("damaged")})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(bad, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup("a"); ok {
		t.Error("corrupt record (or its stale predecessor) resurfaced")
	}
	if rec, ok := r.Lookup("b"); !ok || string(rec.Payload) != "good result" {
		t.Errorf("unrelated record lost: %+v, %v", rec, ok)
	}
}

func TestHashIdentity(t *testing.T) {
	if HashIdentity("a") == HashIdentity("b") {
		t.Error("distinct identities collided")
	}
	if len(HashIdentity("")) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(HashIdentity("")))
	}
}

// TestGroupCommit: inside a Defer scope commits append without an
// fsync and are visible through Lookup at once; the scope's Sync makes
// them durable together, overlapping scopes each end with everything
// they appended synced, and outside any scope Commit syncs itself.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Identity: "grid|seed=9", RootSeed: 9}
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	j.Defer()
	j.Defer() // a second, overlapping scope
	for _, key := range []string{"a", "b", "c"} {
		if err := j.Commit(Record{Key: key, Status: StatusDone, Payload: []byte(key)}); err != nil {
			t.Fatal(err)
		}
	}
	if !j.dirty {
		t.Fatal("deferred commits were fsynced one by one")
	}
	if rec, ok := j.Lookup("b"); !ok || rec.Status != StatusDone {
		t.Fatalf("Lookup(b) inside the scope = %+v, %v", rec, ok)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.dirty {
		t.Fatal("Sync left appended records unsynced")
	}
	// The other scope is still open: its commits wait for its Sync.
	if err := j.Commit(Record{Key: "d", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if !j.dirty {
		t.Fatal("commit inside the remaining scope was fsynced")
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// No scope open: Commit is durable on return again.
	if err := j.Commit(Record{Key: "e", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if j.dirty {
		t.Fatal("commit outside any scope was not fsynced")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}
	r, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Done(); n != 3 {
		t.Fatalf("resumed Done() = %d, want the 3 group-committed records", n)
	}
}
