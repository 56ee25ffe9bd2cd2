package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program prints
// in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(list []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range list {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program prints %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program prints %v", got, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, workloadNames())
	}
}
