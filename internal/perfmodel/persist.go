package perfmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// StarPU persists its calibration under ~/.starpu/sampling so later
// runs skip the warm-up; this file provides the same capability for the
// History model as a JSON document.

// persistedEntry is the on-disk form of one history bucket.
type persistedEntry struct {
	Codelet     string  `json:"codelet"`
	Footprint   uint64  `json:"footprint"`
	WorkerClass string  `json:"worker_class"`
	N           int     `json:"n"`
	Mean        float64 `json:"mean_s"`
	M2          float64 `json:"m2"`
}

// persistedModel is the on-disk document.
type persistedModel struct {
	Version    int              `json:"version"`
	MinSamples int              `json:"min_samples"`
	Entries    []persistedEntry `json:"entries"`
}

const persistVersion = 1

// Save writes the model as JSON.
func (h *History) Save(w io.Writer) error {
	h.mu.Lock()
	doc := persistedModel{Version: persistVersion, MinSamples: h.MinSamples}
	for k, e := range h.entries {
		if e.n == 0 {
			continue
		}
		doc.Entries = append(doc.Entries, persistedEntry{
			Codelet: k.Codelet, Footprint: k.Footprint, WorkerClass: k.WorkerClass,
			N: e.n, Mean: e.mean, M2: e.m2,
		})
	}
	h.mu.Unlock()
	sort.Slice(doc.Entries, func(i, j int) bool {
		a, b := doc.Entries[i], doc.Entries[j]
		if a.Codelet != b.Codelet {
			return a.Codelet < b.Codelet
		}
		if a.WorkerClass != b.WorkerClass {
			return a.WorkerClass < b.WorkerClass
		}
		return a.Footprint < b.Footprint
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Load merges a previously saved model into h (existing buckets are
// overwritten in place by the loaded ones, so held handles stay valid).
func (h *History) Load(r io.Reader) error {
	var doc persistedModel
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("perfmodel: load: %w", err)
	}
	if doc.Version != persistVersion {
		return fmt.Errorf("perfmodel: load: unsupported version %d", doc.Version)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if doc.MinSamples > 0 {
		h.MinSamples = doc.MinSamples
	}
	for _, pe := range doc.Entries {
		if pe.N <= 0 || pe.Mean < 0 {
			return fmt.Errorf("perfmodel: load: invalid entry %+v", pe)
		}
		e := h.entry(Key{Codelet: pe.Codelet, Footprint: pe.Footprint, WorkerClass: pe.WorkerClass})
		e.n, e.mean, e.m2 = pe.N, pe.Mean, pe.M2
	}
	return nil
}

// SaveFile writes the model to path (0644).
func (h *History) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return h.Save(f)
}

// LoadFile merges the model stored at path.
func (h *History) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return h.Load(f)
}
