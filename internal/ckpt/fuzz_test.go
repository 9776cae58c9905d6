package ckpt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalLines renders records as journal lines, the digest of each
// Done record filled in the way Commit fills it unless already set.
func journalLines(rs ...Record) []byte {
	var b []byte
	for _, r := range rs {
		if r.Status == StatusDone && r.Digest == "" {
			r.Digest = hashPayload(r.Payload)
		}
		line, _ := json.Marshal(r) // strings and bytes only: cannot fail
		b = append(append(b, line...), '\n')
	}
	return b
}

// decodeRef is the reference line decoder: a line holds a record
// exactly when encoding/json decodes it and marshals that record back to
// the same bytes.
func decodeRef(line []byte) (Record, bool) {
	var r Record
	if json.Unmarshal(line, &r) != nil {
		return Record{}, false
	}
	again, err := json.Marshal(r)
	if err != nil || !bytes.Equal(again, line) {
		return Record{}, false
	}
	return r, true
}

// replayRef is the reference replay of one journal file: lines split on
// '\n' with a trailing '\r' dropped, blank lines skipped, the scan
// stopping at the first line decodeRef rejects, a Done record whose
// payload misses its digest forgetting its key, and otherwise the last
// record per key winning.
func replayRef(data []byte) map[string]Record {
	records := make(map[string]Record)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		r, ok := decodeRef(line)
		if !ok {
			break
		}
		if r.Status == StatusDone && r.Digest != hashPayload(r.Payload) {
			delete(records, r.Key)
			continue
		}
		records[r.Key] = r
	}
	return records
}

// mergeRef folds per-file replays in filename order: a later file's
// record replaces an earlier one unless that would put a non-Done
// record over a Done one.
func mergeRef(files ...map[string]Record) map[string]Record {
	merged := make(map[string]Record)
	for _, records := range files {
		for key, r := range records {
			if have, ok := merged[key]; ok && have.Status == StatusDone && r.Status != StatusDone {
				continue
			}
			merged[key] = r
		}
	}
	return merged
}

// loadDir writes the given journal files into dir, replacing what they
// held, and replays it.
func loadDir(t *testing.T, dir string, files map[string][]byte) map[string]Record {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return replayDir(t, dir)
}

// replayDir replays every journal in dir as a resume does, trimming none.
func replayDir(t *testing.T, dir string) map[string]Record {
	t.Helper()
	j := &Journal{dir: dir, records: make(map[string]Record)}
	if err := j.load(""); err != nil {
		t.Fatalf("load: %v", err)
	}
	return j.records
}

// FuzzJournalReplay feeds two writers' journal files (journal-w1.jsonl,
// which sorts first, and journal.jsonl) to the resume loader.  The
// loader must never panic; it must match the reference replay and
// done-wins merge; every Done record it returns must carry a payload
// that matches its digest; whatever follows the first undecodable line
// of a file must not change the result; and a record committed after
// opening journal.jsonl must reach the next replay, whatever tail the
// file had, while journal-w1.jsonl keeps its bytes.
func FuzzJournalReplay(f *testing.F) {
	payload := []byte("encoded result")
	running := func(key string) Record { return Record{Key: key, Status: StatusRunning} }
	done := func(key string, p []byte) Record { return Record{Key: key, Status: StatusDone, Payload: p} }
	lines := journalLines
	clean := lines(running("a"), done("a", payload), running("b"), Record{Key: "c", Status: StatusHung, Error: "idle"})
	f.Add(clean, []byte(nil))
	// Torn tail: the last record cut mid-line.
	f.Add(clean[:len(clean)-7], lines(running("c")))
	// Corrupt digest: the payload changed after the digest was taken.
	tampered := Record{Key: "a", Status: StatusDone, Digest: hashPayload(payload), Payload: []byte("tampered")}
	f.Add(lines(done("a", payload), tampered, running("b")), lines(running("a")))
	// Interleaved writers: one re-runs a straggler the other finished, and
	// each holds a Done the other only started.
	f.Add(lines(running("a"), running("b"), done("b", []byte("b1")), running("a")),
		lines(running("a"), done("a", payload), running("b"), running("d"), done("d", nil)))
	// CRLF line ends, blank lines and a non-object line mid-file.
	f.Add(append(bytes.ReplaceAll(clean, []byte("\n"), []byte("\r\n")), "\n\n[1]\n"...), lines(done("e", []byte{0})))

	// One directory for every input: both files are rewritten each time.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, mine, other []byte) {
		if len(mine)+len(other) > 1<<14 {
			return
		}
		got := loadDir(t, dir, map[string][]byte{"journal.jsonl": mine, "journal-w1.jsonl": other})
		for key, r := range got {
			if r.Key != key {
				t.Fatalf("record %+v filed under key %q", r, key)
			}
			if r.Status == StatusDone && r.Digest != hashPayload(r.Payload) {
				t.Fatalf("Done record %q returned with a payload that misses its digest", key)
			}
		}
		if want := mergeRef(replayRef(other), replayRef(mine)); !reflect.DeepEqual(got, want) {
			t.Fatalf("loadAllJournals = %+v\nreference      = %+v", got, want)
		}
		// A replay stops at the first bad line: nothing after one counts.
		tail := append(append(append([]byte(nil), mine...), "\n{\n"...), lines(done("z", payload), running("a"))...)
		if after := loadDir(t, dir, map[string][]byte{"journal.jsonl": tail, "journal-w1.jsonl": other}); !reflect.DeepEqual(after, got) {
			t.Fatalf("records after a bad line changed the replay:\n got %+v\nwant %+v", after, got)
		}
		// Open trims journal.jsonl to what the replay accepted, so a new
		// commit lands on a line of its own.
		loadDir(t, dir, map[string][]byte{"journal.jsonl": mine})
		j, err := open(dir, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(j.records, got) {
			t.Fatalf("open loaded %+v, want %+v", j.records, got)
		}
		next := done("\x00next", payload)
		if err := j.Commit(next); err != nil {
			t.Fatal(err)
		}
		j.Close()
		next.Digest = hashPayload(payload)
		got[next.Key] = next
		if again := replayDir(t, dir); !reflect.DeepEqual(again, got) {
			t.Fatalf("replay after open and commit = %+v\nwant %+v", again, got)
		}
		if data, err := os.ReadFile(filepath.Join(dir, "journal-w1.jsonl")); err != nil || !bytes.Equal(data, other) {
			t.Fatalf("opening journal.jsonl changed journal-w1.jsonl (%v)", err)
		}
	})
}

// FuzzRecordLine checks the journal line codec against encoding/json.
// For any record, appendRecord must write exactly what json.Marshal
// writes, and DecodeRecord must read it back as encoding/json does.  For
// any line, DecodeRecord must succeed exactly when decodeRef does and
// then return the same record.  The line Commit writes for any record
// must decode.
func FuzzRecordLine(f *testing.F) {
	for _, r := range []Record{
		{Key: "24-Intel-2-V100|potrf|HHBB|seed=7", Status: StatusRunning},
		{Key: "a", Status: StatusDone, Digest: hashPayload([]byte("p")), Payload: []byte("p")},
		{Key: "q\"<>&\\", Status: StatusFailed, Error: "bad\n\t\x00\x7f\u2028\u2029\xff é"},
		{Key: "a<b>&c", Status: StatusHung, Error: "x > y & z < w"},
		{Key: "", Status: "", Payload: []byte{0xfb, 0xff, 0}},
	} {
		line, _ := json.Marshal(r)
		f.Add(r.Key, string(r.Status), r.Digest, r.Payload, r.Error, line)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent", journalName))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(parent, []byte("\n")) {
		f.Add("k", "done", "", []byte(nil), "", line)
	}
	for _, line := range []string{
		`{"key":"a","status":"done","payload":""}`,
		`{"key":"a","status":"done","payload":null}`,
		`{"key":"a","status":"done","payload":"AB=="}`,
		`{"key":"a","status":"done","payload":"YW\nJj"}`,
		`{"key":"a","status":"done","payload":"YW\/J"}`,
		`{"status":"done","key":"a"}`,
		`{"key":"a", "status":"done"}`,
		`{"key":"a","status":"done"} `,
		`{"key":"\u0041","status":"done"}`,
		`{"key":"\ud800","status":"done"}`,
		`{"key":"a","status":"done","error":""}`,
		`{"KEY":"a","status":"done"}`,
		`{"key":"a","key":"b","status":"done"}`,
		`{"key":"a\","status":"done"}`,
	} {
		f.Add("k", "done", "", []byte(nil), "", []byte(line))
	}
	f.Fuzz(func(t *testing.T, key, status, digest string, payload []byte, msg string, line []byte) {
		r := Record{Key: key, Status: Status(status), Digest: digest, Payload: payload, Error: msg}
		enc := appendRecord(nil, &r)
		if ref, _ := json.Marshal(r); !bytes.Equal(enc, ref) {
			t.Fatalf("appendRecord(%+v)\n= %s\nwant %s", r, enc, ref)
		}
		for _, l := range [][]byte{enc, line} {
			got, err := DecodeRecord(l)
			want, ok := decodeRef(l)
			if (err == nil) != ok {
				t.Fatalf("DecodeRecord(%q) error %v, reference accepts: %v", l, err, ok)
			}
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeRecord(%q)\n= %+v\nwant %+v", l, got, want)
			}
		}
		// What Commit writes always replays, as the record it encodes.
		cl := commitLine(nil, r)
		if back, err := DecodeRecord(cl); err != nil {
			t.Fatalf("DecodeRecord rejects Commit's line %q: %v", cl, err)
		} else if again := appendRecord(nil, &back); !bytes.Equal(again, cl) {
			t.Fatalf("Commit's line %q decodes to %+v, which encodes as %q", cl, back, again)
		}
	})
}
