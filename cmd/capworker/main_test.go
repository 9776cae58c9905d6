package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parse parses args the way main does, without exiting on errors.
func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("capworker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

func TestParseArgsRejectsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stray argument", []string{"-coordinator", "http://127.0.0.1:1", "w0"}, `unexpected argument "w0"`},
		{"stray argument before flags", []string{"extra", "-coordinator", "http://127.0.0.1:1"}, `unexpected argument "extra"`},
		{"negative cell timeout", []string{"-coordinator", "http://127.0.0.1:1", "-cell-timeout", "-5s"}, "-cell-timeout -5s is negative"},
		{"bad net faults", []string{"-coordinator", "http://127.0.0.1:1", "-net-faults", "drop=2"}, "-net-faults"},
		{"unknown net fault", []string{"-coordinator", "http://127.0.0.1:1", "-net-faults", "bogus=1"}, "-net-faults"},
		{"missing coordinator", []string{"-id", "w0"}, "-coordinator is required"},
		{"unknown flag", []string{"-coordinator", "http://127.0.0.1:1", "-workers", "3"}, "-workers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parse(tc.args...)
			if err == nil {
				t.Fatalf("accepted %q as %+v", tc.args, o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseArgsAccepts(t *testing.T) {
	o, err := parse("-coordinator", "http://127.0.0.1:1", "-id", "w3", "-cell-timeout", "2s",
		"-net-faults", "drop=0.05,delay=20ms", "-net-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if o.id != "w3" || o.coordinator != "http://127.0.0.1:1" || o.cellTimeout != 2*time.Second || o.netSeed != 9 || o.netFaults.Zero() {
		t.Errorf("parsed %+v", o)
	}

	// The arguments capserved passes its supervised workers.
	o, err = parse("-id", "w0", "-coordinator", "http://127.0.0.1:1", "-cell-timeout", "0s")
	if err != nil {
		t.Fatal(err)
	}
	if o.cellTimeout != 0 || !o.netFaults.Zero() {
		t.Errorf("parsed %+v", o)
	}

	o, err = parse("-coordinator", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(o.id, "w-") {
		t.Errorf("default id %q, want w-<pid>", o.id)
	}
}
