package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMirrorsCatalogue keeps BENCHMARK.json's metric lists
// and workloads in step with what the benchmark emits.
func TestBenchmarkJSONMirrorsCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []layerMetric `json:"end_to_end"`
		PerLayer  []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndCatalogue)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if bj.Workloads[i].Name != s.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, s.Name)
		}
	}
}
