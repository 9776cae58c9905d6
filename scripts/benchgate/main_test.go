package main

import (
	"os"
	"path/filepath"
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
