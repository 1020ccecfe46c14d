package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the metrics
// the program reports, with the units it reports them in, and name the
// workloads workloads.json configures.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(cfg.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, workloads.json %d", len(doc.Workloads), len(cfg.Workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := cfg.Workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in workloads.json", w.Name)
		}
	}
	for _, e := range doc.EndToEnd {
		if u, ok := e2eUnits[e.Name]; !ok || u != e.Unit {
			t.Errorf("end-to-end %s %s: program reports unit %q", e.Name, e.Unit, u)
		}
	}
	emitted := layerMetrics(window{}, window{}, phaseResult{}, phaseResult{}, indexSpans(nil), 0, false)
	listed := map[string]bool{}
	for _, e := range doc.PerLayer {
		listed[e.Name] = true
		if _, ok := emitted[e.Name]; !ok {
			t.Errorf("per-layer %s is not reported", e.Name)
		} else if u := layerUnit(e.Name); u != e.Unit {
			t.Errorf("per-layer %s: listed unit %s, reported %s", e.Name, e.Unit, u)
		}
	}
	for name := range emitted {
		if !listed[name] {
			t.Errorf("reported per-layer %s is not in BENCHMARK.json", name)
		}
	}
}
