package stable

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestNewRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 2.0001, 3, math.NaN(), math.Inf(1)} {
		if _, err := New(alpha); err == nil {
			t.Errorf("New(%v): expected error", alpha)
		}
	}
}

func TestNewAcceptsValidAlpha(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.25, 0.5, 1, 1.5, 2} {
		d, err := New(alpha)
		if err != nil {
			t.Fatalf("New(%v): %v", alpha, err)
		}
		if d.alpha != alpha {
			t.Errorf("alpha = %v, want %v", d.alpha, alpha)
		}
	}
}

// mustNew is New for the constant alphas these tests draw from.
func mustNew(alpha float64) *Dist {
	d, err := New(alpha)
	if err != nil {
		panic(err)
	}
	return d
}

func TestGaussianCaseIsStandardNormal(t *testing.T) {
	d := mustNew(2)
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance = %v, want ~1 (N(0,1) convention)", variance)
	}
}

func TestCauchyQuartiles(t *testing.T) {
	// Standard Cauchy has quartiles at ±1 and median 0.
	d := mustNew(1)
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 200_000
	xs := sampleSorted(d, rng, n)
	if m := xs[n/2]; math.Abs(m) > 0.02 {
		t.Errorf("Cauchy median = %v, want ~0", m)
	}
	if q := xs[3*n/4]; math.Abs(q-1) > 0.03 {
		t.Errorf("Cauchy 75%% quantile = %v, want ~1", q)
	}
	if q := xs[n/4]; math.Abs(q+1) > 0.03 {
		t.Errorf("Cauchy 25%% quantile = %v, want ~-1", q)
	}
}

func TestSymmetry(t *testing.T) {
	// Every symmetric stable sampler should produce a median near 0 and
	// matching upper/lower quantiles.
	for _, alpha := range []float64{0.3, 0.5, 0.8, 1.2, 1.7, 2} {
		d := mustNew(alpha)
		rng := rand.New(rand.NewPCG(3, uint64(alpha*1000)))
		const n = 120_000
		xs := sampleSorted(d, rng, n)
		if m := xs[n/2]; math.Abs(m) > 0.03 {
			t.Errorf("alpha=%v: median = %v, want ~0", alpha, m)
		}
		hi := xs[9*n/10]
		lo := -xs[n/10]
		// Relative agreement of the symmetric tails.
		if rel := math.Abs(hi-lo) / math.Max(hi, lo); rel > 0.1 {
			t.Errorf("alpha=%v: asymmetric deciles %v vs %v (rel %v)", alpha, hi, lo, rel)
		}
	}
}

// TestStabilityProperty is the core correctness check: for independent
// copies X1, X2 and constants a, b, the combination a·X1 + b·X2 must be
// distributed as (|a|^α + |b|^α)^(1/α) · X. We compare empirical deciles.
func TestStabilityProperty(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.8, 1, 1.3, 1.9, 2} {
		d := mustNew(alpha)
		a, b := 2.0, 3.0
		scale := math.Pow(math.Pow(a, alpha)+math.Pow(b, alpha), 1/alpha)
		rng := rand.New(rand.NewPCG(4, uint64(alpha*1000)))
		const n = 150_000
		combined := make([]float64, n)
		scaled := make([]float64, n)
		for i := 0; i < n; i++ {
			combined[i] = a*d.Sample(rng) + b*d.Sample(rng)
			scaled[i] = scale * d.Sample(rng)
		}
		sort.Float64s(combined)
		sort.Float64s(scaled)
		// Compare interior quantiles (tails of heavy-tailed laws are too
		// noisy for direct comparison at this sample size).
		for _, q := range []float64{0.2, 0.3, 0.4, 0.6, 0.7, 0.8} {
			i := int(q * n)
			c, s := combined[i], scaled[i]
			denom := math.Max(math.Abs(c), math.Abs(s))
			if denom < 0.05 {
				continue // both near the symmetric center
			}
			if rel := math.Abs(c-s) / denom; rel > 0.08 {
				t.Errorf("alpha=%v q=%v: combined %v vs scaled %v (rel %v)", alpha, q, c, s, rel)
			}
		}
	}
}

func TestHeavyTailOrdering(t *testing.T) {
	// Smaller alpha means heavier tails: the 99% quantile should grow as
	// alpha shrinks.
	quant := func(alpha float64) float64 {
		d := mustNew(alpha)
		rng := rand.New(rand.NewPCG(5, uint64(alpha*1000)))
		const n = 60_000
		xs := sampleSorted(d, rng, n)
		return xs[int(0.99*n)]
	}
	q15, q10, q05 := quant(1.5), quant(1.0), quant(0.5)
	if !(q05 > q10 && q10 > q15) {
		t.Errorf("tail quantiles not ordered by heaviness: a=0.5:%v a=1:%v a=1.5:%v", q05, q10, q15)
	}
}

func TestMedianAbsExactValues(t *testing.T) {
	if got := MedianAbs(1); got != 1 {
		t.Errorf("MedianAbs(1) = %v, want 1", got)
	}
	want := 0.6744897501960817
	if got := MedianAbs(2); got != want {
		t.Errorf("MedianAbs(2) = %v, want %v", got, want)
	}
}

func TestMedianAbsMonteCarloAgainstEmpirical(t *testing.T) {
	// Cross-check the cached Monte-Carlo constant against an independent
	// empirical estimate with a different seed.
	for _, alpha := range []float64{0.5, 0.75, 1.25, 1.5} {
		b := MedianAbs(alpha)
		d := mustNew(alpha)
		rng := rand.New(rand.NewPCG(7, uint64(alpha*1000)))
		const n = 150_000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Abs(d.Sample(rng))
		}
		sort.Float64s(xs)
		emp := xs[n/2]
		if math.Abs(b-emp)/emp > 0.02 {
			t.Errorf("alpha=%v: MedianAbs %v vs independent empirical %v", alpha, b, emp)
		}
	}
}

func TestMedianAbsCached(t *testing.T) {
	a := MedianAbs(0.65)
	b := MedianAbs(0.65)
	if a != b {
		t.Errorf("MedianAbs not deterministic: %v vs %v", a, b)
	}
}

func TestMedianAbsNearOneIsContinuous(t *testing.T) {
	// B(p) should vary smoothly; check values bracketing the exact B(1)=1.
	lo, hi := MedianAbs(0.95), MedianAbs(1.05)
	if !(lo > 0.8 && lo < 1.2 && hi > 0.8 && hi < 1.2) {
		t.Errorf("B(0.95)=%v B(1.05)=%v not near B(1)=1", lo, hi)
	}
}

func TestFill(t *testing.T) {
	d := mustNew(1.5)
	rng := rand.New(rand.NewPCG(8, 8))
	out := make([]float64, 1000)
	d.Fill(rng, out)
	distinct := map[float64]bool{}
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("Fill produced NaN")
		}
		distinct[v] = true
	}
	if len(distinct) < 990 {
		t.Errorf("Fill produced too many duplicates: %d distinct of 1000", len(distinct))
	}
}

func TestMedianInPlace(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{2, 1}, 1.5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 2, 3, 1}, 2.5},
		{[]float64{5, 5, 5}, 5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := medianInPlace(in); got != c.want {
			t.Errorf("medianInPlace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func sampleSorted(d *Dist, rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	sort.Float64s(xs)
	return xs
}
