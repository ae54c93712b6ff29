package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every workload at smoke size, checker on: keeps the benchmark
// compiling against the packages it drives and its oracle honest.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep, err := runWorkload(runOptions{workload: w, seed: 3, rounds: buildsPerRun, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			if len(rep.SetupS) != buildsPerRun || len(rep.RoundS) != buildsPerRun {
				t.Errorf("%d builds, %d rounds; want %d of each", len(rep.SetupS), len(rep.RoundS), buildsPerRun)
			}
			for _, g := range gates {
				if v, ok := rep.EndToEnd[g.name]; !ok || v.Unit != g.unit {
					t.Errorf("end-to-end metric %s: %+v, present %v", g.name, v, ok)
				}
			}
			if len(rep.UnevenRounds) != 0 {
				t.Errorf("rounds of fixed work differ: %v", rep.UnevenRounds)
			}
			line, err := rep.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(line, &res); err != nil || len(res) != 4 {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		})
	}
}

// The traced run: a span file in which every span names its request and
// every non-root span its parent, non-negative median self times, every
// per-layer metric reported, the tracing overhead among them.
func TestSmokeTracedRun(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := runWorkload(runOptions{workload: w, seed: 4, traced: true, smoke: true, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("traced run incorrect: %v", rep.Failures)
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			byID := map[int]*span{}
			for i := range spans {
				byID[spans[i].ID] = &spans[i]
			}
			roots := 0
			for _, s := range spans {
				if s.Req == 0 || s.Name == "" || s.End < s.Start {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Parent == 0 {
					roots++
					if layerOf(s.Name) != "client" && layerOf(s.Name) != "pusher" {
						t.Errorf("span %+v has no parent and is not a client call", s)
					}
					continue
				}
				if p := byID[s.Parent]; p == nil || p.Req != s.Req {
					t.Errorf("span %+v: parent %+v is not of its request", s, p)
				}
			}
			if roots == 0 || roots == len(spans) {
				t.Errorf("%d roots among %d spans", roots, len(spans))
			}
			for name, us := range rep.SelfTimeUS {
				if us < 0 {
					t.Errorf("layer %s: median self time %v µs", name, us)
				}
			}
			if len(rep.PerLayer) != len(perLayerUnits) {
				t.Errorf("%d per-layer metrics, want %d", len(rep.PerLayer), len(perLayerUnits))
			}
			if rep.PerLayer["bench.trace_overhead"].Value == 0 || rep.PerLayer["client.overhead_us"].Value <= 0 {
				t.Errorf("tracing overhead %v, client overhead %v: not measured",
					rep.PerLayer["bench.trace_overhead"].Value, rep.PerLayer["client.overhead_us"].Value)
			}
		})
	}
}

// One seed must give the same counts on every run: the prune stats and
// the fft build counts are functions of the generated inputs alone.
func TestCountsRepeatForASeed(t *testing.T) {
	var first *report
	for i := 0; i < 2; i++ {
		rep, err := runWorkload(runOptions{workload: "serve_refine", seed: 5, rounds: buildsPerRun, smoke: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Prune.Queries == 0 || rep.Build.Correlations == 0 {
			t.Fatalf("no counts: %+v %+v", rep.Prune, rep.Build)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Prune != first.Prune || rep.Build.Correlations != first.Build.Correlations || rep.Accuracy != first.Accuracy {
			t.Errorf("run 2 differs: %+v %+v, run 1 %+v %+v", rep.Prune, rep.Accuracy, first.Prune, first.Accuracy)
		}
	}
}
