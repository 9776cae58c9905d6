package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tinyCell is a 5x5-tile double POTRF on the V100 node under an
// unbalanced plan: the smallest cell with a real panel chain.
var tinyCell = []string{"-platform", "24-Intel-2-V100", "-op", "potrf", "-scale", "10", "-plan", "HB"}

// TestRunTinyPotrf drives the plain mode end to end: the Chrome trace
// decodes as an event array with one slice per task, the critical-path
// line is printed, and the analyze subcommand resolves the same cell
// flags to the same cell.
func TestRunTinyPotrf(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run(context.Background(), append(tinyCell, "-chrome", chrome), &out); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON event array: %v", err)
	}
	slices, flows := 0, 0
	for _, e := range events {
		switch e.Ph {
		case "X":
			slices++
		case "s":
			flows++
		}
	}
	if slices != 35 || flows == 0 {
		t.Errorf("chrome trace has %d task slices and %d flow arrows, want 35 and some", slices, flows)
	}

	text := out.String()
	cp := regexp.MustCompile(`(?m)^critical path: (\d+) tasks, .* of makespan\), \d+% of it on CPUs$`).FindStringSubmatch(text)
	if cp == nil || cp[1] == "0" {
		t.Fatalf("no critical-path line in output:\n%s", text)
	}

	var aout bytes.Buffer
	if err := runAnalyze(tinyCell, &aout); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(text, "\n")
	want := "dPOTRF N=9600 NB=1920 on 24-Intel-2-V100, plan HB (250W, 140W), scheduler dmdas"
	if header != want {
		t.Errorf("plain header = %q, want %q", header, want)
	}
	if got, _, _ := strings.Cut(aout.String(), "\n"); got != header {
		t.Errorf("analyze resolved the cell flags to %q, plain mode to %q", got, header)
	}
	if !strings.Contains(aout.String(), "Critical path: ") {
		t.Errorf("analyze output has no critical path:\n%s", aout.String())
	}
}
