package quantile

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectSmall(t *testing.T) {
	cases := []struct {
		data []float64
		k    int
		want float64
	}{
		{[]float64{1}, 0, 1},
		{[]float64{2, 1}, 0, 1},
		{[]float64{2, 1}, 1, 2},
		{[]float64{3, 1, 2}, 0, 1},
		{[]float64{3, 1, 2}, 1, 2},
		{[]float64{3, 1, 2}, 2, 3},
		{[]float64{5, 5, 5, 5}, 2, 5},
		{[]float64{-1, 0, 1, -2}, 0, -2},
		{[]float64{-1, 0, 1, -2}, 3, 1},
	}
	for _, c := range cases {
		if got := Select(c.data, c.k, NewScratch(len(c.data))); got != c.want {
			t.Errorf("Select(%v, %d) = %v, want %v", c.data, c.k, got, c.want)
		}
	}
}

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(64)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		k := rng.IntN(n)
		if got := Select(data, k, NewScratch(n)); got != sorted[k] {
			t.Fatalf("trial %d: Select(_, %d) = %v, want %v (data %v)", trial, k, got, sorted[k], data)
		}
	}
}

func TestSelectDuplicates(t *testing.T) {
	data := []float64{3, 3, 1, 1, 2, 2, 3, 1}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for k := range data {
		if got := Select(data, k, NewScratch(len(data))); got != sorted[k] {
			t.Errorf("Select(dups, %d) = %v, want %v", k, got, sorted[k])
		}
	}
}

func TestSelectPanics(t *testing.T) {
	assertPanics(t, "empty", func() { Select(nil, 0, nil) })
	assertPanics(t, "neg", func() { Select([]float64{1}, -1, NewScratch(1)) })
	assertPanics(t, "high", func() { Select([]float64{1}, 1, NewScratch(1)) })
}

func TestMedianOddEven(t *testing.T) {
	if got := MedianCopy([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := MedianCopy([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := MedianCopy([]float64{7}); got != 7 {
		t.Errorf("single median = %v, want 7", got)
	}
	if got := MedianCopy([]float64{1, 2}); got != 1.5 {
		t.Errorf("pair median = %v, want 1.5", got)
	}
}

func TestMedianPanicsEmpty(t *testing.T) {
	assertPanics(t, "empty", func() { Median(nil, nil) })
}

func TestMedianCopyPreservesInput(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), data...)
	if got := MedianCopy(data); got != 3 {
		t.Errorf("MedianCopy = %v, want 3", got)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("MedianCopy mutated input at %d: %v != %v", i, data[i], orig[i])
		}
	}
}

// Property: Median matches the sort-based definition on random inputs.
func TestMedianProperty(t *testing.T) {
	f := func(raw []float64) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		got := MedianCopy(data)
		return got == want || math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileEndpointsAndMid(t *testing.T) {
	data := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40},
		{0.1, 14}, // interpolated: pos=0.4 between 10 and 20
	}
	for _, c := range cases {
		if got := Quantile(data, c.q, NewScratch(len(data))); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingle(t *testing.T) {
	if got := Quantile([]float64{42}, 0.9, NewScratch(1)); got != 42 {
		t.Errorf("Quantile single = %v, want 42", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	assertPanics(t, "empty", func() { Quantile(nil, 0.5, nil) })
	assertPanics(t, "low", func() { Quantile([]float64{1}, -0.1, NewScratch(1)) })
	assertPanics(t, "high", func() { Quantile([]float64{1}, 1.1, NewScratch(1)) })
	assertPanics(t, "nan", func() { Quantile([]float64{1}, math.NaN(), NewScratch(1)) })
}

// Property: Quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(40)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(data, q, NewScratch(n))
			if v < prev-1e-9 {
				t.Fatalf("trial %d: quantile not monotone at q=%v: %v < %v", trial, q, v, prev)
			}
			prev = v
		}
	}
}

func TestAbsMedianDiff(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 0, 3}
	scratch := NewScratch(3)
	// |1-4|=3, |2-0|=2, |3-3|=0 -> median 2
	if got := AbsMedianDiff(a, b, scratch); got != 2 {
		t.Errorf("AbsMedianDiff = %v, want 2", got)
	}
}

func TestAbsMedianDiffMismatch(t *testing.T) {
	assertPanics(t, "len", func() { AbsMedianDiff([]float64{1}, []float64{1, 2}, NewScratch(2)) })
	assertPanics(t, "scratch", func() { AbsMedianDiff([]float64{1}, []float64{2}, nil) })
}

func TestAbsMedianDiffSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(33)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		s1 := NewScratch(n)
		s2 := NewScratch(n)
		if d1, d2 := AbsMedianDiff(a, b, s1), AbsMedianDiff(b, a, s2); d1 != d2 {
			t.Fatalf("AbsMedianDiff not symmetric: %v vs %v", d1, d2)
		}
	}
}

// Property: on sketch-like pairs with planted ties, zeros and overflowing
// lanes, at every length around the tail and partition boundaries, the
// median equals sort-then-compare bit for bit, and FirstBelow on one row
// rejects it exactly when the order statistic of rank (n−1)/2 is ≥ bound.
func TestAbsMedianDiffMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + trial%70
		vals := make([]float64, 2*n)
		for i := range vals {
			vals[i] = cauchy(rng)
		}
		switch trial % 4 {
		case 1: // ties: lanes drawn from three distinct differences
			for i := 0; i < n; i++ {
				vals[i], vals[n+i] = float64(rng.IntN(3)), 0
			}
		case 2: // a run of identical lanes (difference 0) among continuous ones
			for i := 0; i < n; i += 2 {
				vals[n+i] = vals[i]
			}
		case 3: // lanes that overflow to +Inf
			for i := 0; i < n; i += 3 {
				vals[i], vals[n+i] = math.MaxFloat64, -math.MaxFloat64
			}
		}
		a, b, sorted := absDiffPairs(vals)
		s := NewScratch(n)
		want := sortedMedian(sorted)
		if got := AbsMedianDiff(a, b, s); !sameBits(got, want) {
			t.Fatalf("trial %d n=%d: AbsMedianDiff = %v, sorted reference %v", trial, n, got, want)
		}
		for _, bound := range []float64{0, want, sorted[rng.IntN(n)], math.Nextafter(want, math.Inf(1)), math.Inf(1)} {
			ok := FirstBelow(a, b, bound) == 0
			if ok != (sorted[(n-1)/2] < bound) || (!ok && want < bound) {
				t.Fatalf("trial %d n=%d bound=%v: FirstBelow selects %v, median %v, rank-(n-1)/2 %v",
					trial, n, bound, ok, want, sorted[(n-1)/2])
			}
		}
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
