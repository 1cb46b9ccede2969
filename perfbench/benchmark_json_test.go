package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this command runs and prints.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := []string{"serve-mix"}
	for name := range simWorkloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, command prints %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
