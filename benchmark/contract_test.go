package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// perLayerHigher are the per-layer metrics for which more is better.
var perLayerHigher = map[string]bool{"prune.pruned_fraction": true, "recall": true}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// wantContract is BENCHMARK.json as the program's own tables define it.
func wantContract() contract {
	c := contract{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for i := range specs {
		c.Workloads = append(c.Workloads, contractWorkload{specs[i].name, specs[i].why})
	}
	c.Workloads = append(c.Workloads, contractWorkload{"ingest_live", ingestWhy})
	for _, g := range gates {
		bound := g.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{g.name, g.unit, better(g.higher), &bound})
	}
	names := make([]string, 0, len(perLayerUnits))
	for name := range perLayerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.PerLayer = append(c.PerLayer, contractMetric{name, perLayerUnits[name], better(perLayerHigher[name]), nil})
	}
	return c
}

// BENCHMARK.json at the root of the repository must say what the
// program does: same workloads, same gates and bounds, same per-layer
// names. On a mismatch the test prints the file it expects.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	want := wantContract()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the program's tables; expected:\n%s", exp)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the contract's 64 KiB", len(data))
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(want.PerLayer), len(want.EndToEnd))
	}
	setup := false
	for _, m := range want.EndToEnd {
		if *m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}
