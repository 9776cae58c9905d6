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

// replayRef is the reference replay of one journal file: lines split on
// '\n' with a trailing '\r' dropped, blank lines skipped, the scan
// stopping at the first line that does not decode as a Record, a Done
// record whose payload misses its digest forgetting its key, and
// otherwise the last record per key winning.
func replayRef(data []byte) map[string]Record {
	records := make(map[string]Record)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil {
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
// held, and replays it through loadAllJournals.
func loadDir(t *testing.T, dir string, files map[string][]byte) map[string]Record {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := loadAllJournals(dir)
	if err != nil {
		t.Fatalf("loadAllJournals: %v", err)
	}
	return got
}

// FuzzJournalReplay feeds two writers' journal files (journal-w1.jsonl,
// which sorts first, and journal.jsonl) to the resume loader.  The
// loader must never panic; it must match the reference replay and
// done-wins merge; every Done record it returns must carry a payload
// that matches its digest; and whatever follows the first undecodable
// line of a file must not change the result.
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
	})
}
