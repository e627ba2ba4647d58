package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

// TestCatalogueMatchesBenchmarkJSON keeps the catalogue this program
// prints and BENCHMARK.json naming the same metrics, in the same order,
// with the same units and directions, and the same workloads.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	type entry struct{ name, unit, better string }
	var fromJSON, fromCat []entry
	for _, m := range bf.EndToEnd {
		fromJSON = append(fromJSON, entry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		fromJSON = append(fromJSON, entry{m.Name, m.Unit, m.Better})
	}
	nE2E := 0
	for _, m := range catalogue {
		fromCat = append(fromCat, entry{m.Name, m.Unit, m.Better})
		if m.EndToEnd {
			if len(fromCat) != nE2E+1 {
				t.Errorf("%s: end-to-end metrics must come first in the catalogue", m.Name)
			}
			nE2E++
		}
	}
	if nE2E != len(bf.EndToEnd) {
		t.Errorf("catalogue has %d end-to-end metrics, BENCHMARK.json %d", nE2E, len(bf.EndToEnd))
	}
	if len(fromJSON) != len(fromCat) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(fromJSON), len(fromCat))
	}
	for i := range fromCat {
		if fromJSON[i] != fromCat[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %+v", i, fromJSON[i], fromCat[i])
		}
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, benchmarked)
	}
	for _, w := range allWorkloads {
		if _, err := newWorkload(w, 1, t.TempDir()); err != nil {
			t.Errorf("workload %s: %v", w, err)
		}
	}
	for _, m := range catalogue {
		for _, w := range m.Workloads {
			if !strings.Contains(","+strings.Join(allWorkloads, ",")+",", ","+w+",") {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}

func TestEndToEndAndPerLayerReportEveryCatalogueMetric(t *testing.T) {
	passes := []passResult{{wall: 1e9, setup: 1e6, cpu: 5e8, recovery: 1e7, scores: 10,
		layer: map[string]float64{"sim.points": 3}}}
	e2e := endToEnd(passes)
	layers := perLayer(passes)
	for _, m := range catalogue {
		src := layers
		if m.EndToEnd {
			src = e2e
		}
		if _, ok := src[m.Name]; !ok && m.Name != "trace.overhead_ratio" {
			t.Errorf("%s is not reported", m.Name)
		}
	}
}
