package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{71.8, 56.4, 80, 60.2, 69.9}, 69.9},
		{[]float64{4, 1, 2, 3}, 2.5},
	} {
		if got := median(append([]float64(nil), c.xs...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestReadMeasuredFoldsSamples: numeric fields become per-field
// medians (each field independently), strings are kept, and the entry
// records the sample count.
func TestReadMeasuredFoldsSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measured.json")
	data := `{"name":"hotpath_fig4_reduced","cells":38,"cells_per_sec":70.1,"allocs_per_cell":26150}
{"name":"hotpath_fig4_reduced","cells":38,"cells_per_sec":90.5,"allocs_per_cell":26140}

{"name":"hotpath_fig4_reduced","cells":38,"cells_per_sec":65.0,"allocs_per_cell":26160}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readMeasured(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"name": "hotpath_fig4_reduced", "cells": 38.0, "cells_per_sec": 70.1, "allocs_per_cell": 26150.0, "samples": 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := readMeasured(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing measurement file accepted")
	}
}

// TestGateThroughputField: the throughput gate compares CPU-time
// cells/sec when the baseline entry records it, whatever wall clock
// did, and falls back to wall-clock cells/sec — saying so — for an
// entry that predates the field.  Allocations stay strictly gated.
func TestGateThroughputField(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const note = "gating on wall-clock cells_per_sec"
	cpuBase := write("cpu_base.json", `{"sha":"old","cells_per_sec":10}
{"sha":"new","cells_per_sec":100,"cpu_cells_per_sec":100,"allocs_per_cell":700}`)
	wallBase := write("wall_base.json", `{"sha":"old","cells_per_sec":100,"allocs_per_cell":700}`)
	for _, c := range []struct {
		name, base, meas string
		pass, fallback   bool
	}{
		{"cpu steady, wall halved", cpuBase, `{"cells_per_sec":50,"cpu_cells_per_sec":90,"allocs_per_cell":700}`, true, false},
		{"cpu drop", cpuBase, `{"cells_per_sec":100,"cpu_cells_per_sec":70,"allocs_per_cell":700}`, false, false},
		{"cpu steady, allocs up", cpuBase, `{"cells_per_sec":100,"cpu_cells_per_sec":100,"allocs_per_cell":800}`, false, false},
		{"wall steady, cpu low", wallBase, `{"cells_per_sec":90,"cpu_cells_per_sec":10,"allocs_per_cell":700}`, true, true},
		{"wall drop", wallBase, `{"cells_per_sec":70,"cpu_cells_per_sec":100,"allocs_per_cell":700}`, false, true},
	} {
		var out strings.Builder
		err := gate(&out, c.base, write("measured.json", c.meas), 0.25, 0.10)
		if (err == nil) != c.pass {
			t.Errorf("%s: gate error %v, want pass=%v\n%s", c.name, err, c.pass, out.String())
		}
		if strings.Contains(out.String(), note) != c.fallback {
			t.Errorf("%s: fallback note printed = %v, want %v\n%s", c.name, !c.fallback, c.fallback, out.String())
		}
	}
	if err := gate(io.Discard, cpuBase, write("measured.json", `{"cells_per_sec":100,"allocs_per_cell":700}`), 0.25, 0.10); err == nil {
		t.Error("measurement without cpu_cells_per_sec passed a CPU-time baseline")
	}
}

// TestGateBytesPerCell: bytes_per_cell may grow by at most 25 % over a
// baseline entry that records it, must be measured when the baseline
// has it, and is not gated against an entry that predates it.
func TestGateBytesPerCell(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	withBytes := write("bytes_base.json", `{"cpu_cells_per_sec":100,"allocs_per_cell":700,"bytes_per_cell":100000}`)
	without := write("plain_base.json", `{"cpu_cells_per_sec":100,"allocs_per_cell":700}`)
	for _, c := range []struct {
		name, base, meas string
		pass             bool
	}{
		{"bytes down", withBytes, `{"cpu_cells_per_sec":100,"allocs_per_cell":700,"bytes_per_cell":20000}`, true},
		{"bytes at the ceiling", withBytes, `{"cpu_cells_per_sec":100,"allocs_per_cell":700,"bytes_per_cell":125000}`, true},
		{"bytes over the ceiling", withBytes, `{"cpu_cells_per_sec":100,"allocs_per_cell":700,"bytes_per_cell":126000}`, false},
		{"bytes not measured", withBytes, `{"cpu_cells_per_sec":100,"allocs_per_cell":700}`, false},
		{"baseline without bytes", without, `{"cpu_cells_per_sec":100,"allocs_per_cell":700,"bytes_per_cell":9e9}`, true},
	} {
		var out strings.Builder
		err := gate(&out, c.base, write("measured.json", c.meas), 0.25, 0.10)
		if (err == nil) != c.pass {
			t.Errorf("%s: gate error %v, want pass=%v\n%s", c.name, err, c.pass, out.String())
		}
	}
}
