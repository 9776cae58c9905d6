package ckpt

import (
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
	// The journal stays appendable: the torn bytes are simply dead weight
	// before the next newline-framed record.
	if err := r.Commit(Record{Key: "d", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	r.Close()
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

// TestCommitHook checks the observability seam: SetOnCommit sees every
// durable commit with the committed record (digest included), runs
// after the write is synced, and a hook-less or cleared journal commits
// without one.
func TestCommitHook(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, Manifest{Identity: "hook-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var got []Record
	j.SetOnCommit(func(r Record) { got = append(got, r) })
	payload := []byte("bytes")
	if err := j.Commit(Record{Key: "a", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Record{Key: "a", Status: StatusDone, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("hook saw %d commits, want 2", len(got))
	}
	if got[0].Key != "a" || got[0].Status != StatusRunning {
		t.Errorf("first hook record = %+v, want the running marker", got[0])
	}
	if got[1].Status != StatusDone || got[1].Digest == "" || string(got[1].Payload) != "bytes" {
		t.Errorf("second hook record = %+v, want the done record with its digest filled in", got[1])
	}

	// Clearing the hook stops deliveries; committing still works.
	j.SetOnCommit(nil)
	if err := j.Commit(Record{Key: "b", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("cleared hook still saw %d commits, want 2", len(got))
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
