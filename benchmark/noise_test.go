package main

import (
	"math"
	"reflect"
	"testing"
)

func TestQuietSamplesAreEachSlotsShortestQuarter(t *testing.T) {
	// Five rounds of two slots; the interference hits the slots in
	// different rounds, so no whole round is quiet.
	perRound := [][]float64{{1.6, 10}, {1.0, 16}, {1.1, 10.5}, {1.7, 11}, {1.2, 17}}
	got := quietSamples(perRound)
	want := [][]float64{{1.0, 1.1}, {10, 10.5}} // ⌈5/4⌉ = 2 of each slot, ascending
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quietSamples = %v, want %v", got, want)
	}
	if got := quietSamples(nil); got != nil {
		t.Fatalf("no rounds, no samples; got %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond and must not be reported")
	}
	if v, ok := percentile(samples(21), 0.50); !ok || v != 11 {
		t.Fatalf("p50 of 21 = %v, %v; want 11", v, ok)
	}
	if _, ok := percentile(samples(19), 0.50); ok {
		t.Fatal("p50 of 19 samples has only 9 beyond and must not be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("no samples, no percentile")
	}
}

func TestPooledSortsAllSamples(t *testing.T) {
	got := pooled([][]float64{{3, 1}, nil, {2}})
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("pooled = %v", got)
	}
}

// The values are what Python prints for
// statistics.quantiles([...], n=4) on the same data.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 7, 9.5},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
