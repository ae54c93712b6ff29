package main

import "testing"

func TestJudgeMetric(t *testing.T) {
	lower := gate{name: "p50_ms", unit: "ms", bound: 0.08}
	higher := gate{name: "throughput", unit: "items/s", higher: true, bound: 0.08}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 120, 90, 140, 70, 110, 95, 125}
	cases := []struct {
		name string
		g    gate
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictUnchanged},
		{"latency up 20%", lower, steady, scale(1.2), verdictRegression},
		{"latency up 5% stays inside the bound", lower, steady, scale(1.05), verdictUnchanged},
		{"latency down 20% on every pair", lower, steady, scale(0.8), verdictGain},
		{"throughput down 20%", higher, steady, scale(0.8), verdictRegression},
		{"throughput up 20%", higher, steady, scale(1.2), verdictGain},
		{"parent spread wider than the bound", lower, noisy, scale(1.2), verdictUnresolved},
		{"noisy parent, yet every run of the change is better", lower, noisy, scale(0.5), verdictGain},
		{"no runs on one side", lower, steady, nil, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judgeMetric(c.g, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	// A gain needs nine tenths of the pairs: 8 of 10 is not enough.
	b := scale(0.8)
	b[0], b[1] = 130, 130
	if got := judgeMetric(lower, steady, b); got.Verdict == verdictGain {
		t.Errorf("8 wins of 10 pairs judged a gain: %+v", got)
	}
}

func TestCompareSetsPairsWorkloadsAndSkipsTracedRuns(t *testing.T) {
	mk := func(w string, traced bool, p50 float64) *report {
		return &report{Workload: w, Traced: traced, EndToEnd: map[string]metricValue{"p50_ms": {p50, "ms"}}}
	}
	a := []*report{mk("serve_sketch", false, 1), mk("serve_sketch", false, 1.01), mk("serve_sketch", true, 50)}
	b := []*report{mk("serve_sketch", false, 1.5), mk("serve_sketch", false, 1.52), mk("ingest_live", false, 9)}
	cs := compareSets(a, b)
	if len(cs) != len(gates) {
		t.Fatalf("%d comparisons, want one per gate for the one shared workload", len(cs))
	}
	for _, c := range cs {
		if c.Metric == "p50_ms" && (c.A.N != 2 || c.Verdict != verdictRegression) {
			t.Errorf("p50_ms: %+v", c)
		}
	}
	if _, regressed := renderComparisons(cs); !regressed {
		t.Error("a regression must make -compare exit non-zero")
	}
}
