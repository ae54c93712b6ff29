package stable

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestCDFClosedForms(t *testing.T) {
	cauchy := mustNew(1)
	for _, x := range []float64{-5, -1, 0, 1, 5} {
		want := 0.5 + math.Atan(x)/math.Pi
		got, err := cauchy.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Cauchy CDF(%v) = %v, want %v", x, got, want)
		}
	}
	normal := mustNew(2)
	got, err := normal.CDF(0)
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Normal CDF(0) = %v, %v", got, err)
	}
	got, _ = normal.CDF(1.959963984540054)
	if math.Abs(got-0.975) > 1e-9 {
		t.Errorf("Normal CDF(1.96) = %v, want 0.975", got)
	}
}

// TestFourierNearCauchy evaluates the generic Fourier path at α very
// near 1 (which does NOT hit the closed-form switch) and checks
// continuity against the exact Cauchy CDF.
func TestFourierNearCauchy(t *testing.T) {
	d := mustNew(1.0000001)
	for _, x := range []float64{0, 0.5, 1, 3, 10} {
		wantC := 0.5 + math.Atan(x)/math.Pi
		gotC, err := d.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotC-wantC) > 1e-5 {
			t.Errorf("CDF(%v) near Cauchy = %v, want ≈%v", x, gotC, wantC)
		}
	}
}

func TestCDFProperties(t *testing.T) {
	for _, alpha := range []float64{0.4, 0.7, 1.3, 1.8} {
		d := mustNew(alpha)
		// Monotone, symmetric, correct at 0.
		prev := -1.0
		for _, x := range []float64{-20, -5, -1, -0.1, 0, 0.1, 1, 5, 20} {
			f, err := d.CDF(x)
			if err != nil {
				t.Fatalf("alpha %v: %v", alpha, err)
			}
			if f < prev-1e-12 {
				t.Errorf("alpha %v: CDF not monotone at %v", alpha, x)
			}
			if f < 0 || f > 1 {
				t.Errorf("alpha %v: CDF(%v) = %v outside [0,1]", alpha, x, f)
			}
			mirror, _ := d.CDF(-x)
			if math.Abs(f+mirror-1) > 1e-8 {
				t.Errorf("alpha %v: CDF(%v)+CDF(%v) = %v, want 1", alpha, x, -x, f+mirror)
			}
			prev = f
		}
		if f, _ := d.CDF(0); f != 0.5 {
			t.Errorf("alpha %v: CDF(0) = %v", alpha, f)
		}
	}
}

func TestCDFMatchesEmpirical(t *testing.T) {
	// The analytic CDF must agree with the CMS sampler — this ties the
	// two independent implementations (sampling transform and Fourier
	// inversion) to the same distribution.
	for _, alpha := range []float64{0.6, 1.4} {
		d := mustNew(alpha)
		rng := rand.New(rand.NewPCG(42, uint64(alpha*100)))
		const n = 200_000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Sample(rng)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			emp := xs[int(q*n)]
			analytic, err := d.CDF(emp)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(analytic-q) > 0.01 {
				t.Errorf("alpha %v: CDF(empirical %v-quantile %v) = %v", alpha, q, emp, analytic)
			}
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 1.7, 2} {
		d := mustNew(alpha)
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			x, err := d.Quantile(q)
			if err != nil {
				t.Fatalf("alpha %v q %v: %v", alpha, q, err)
			}
			back, err := d.CDF(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-q) > 1e-7 {
				t.Errorf("alpha %v: CDF(Quantile(%v)) = %v", alpha, q, back)
			}
		}
	}
}

// TestUpperTailMatchesFourier: where both can be evaluated — from the
// switch-over point to a few thousand half-periods out — the α < 1 tail
// series and the Fourier inversion are the same function.
func TestUpperTailMatchesFourier(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.75, 0.95} {
		d := mustNew(alpha)
		for _, xa := range []float64{tailSeriesFrom, 40} {
			x := math.Pow(xa, 1/alpha)
			v, err := d.fourier(x)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := upperTail(alpha, x), 0.5-v/math.Pi; math.Abs(got-want) > 1e-9 {
				t.Errorf("alpha %v, x %v: tail series %v, Fourier %v", alpha, x, got, want)
			}
		}
	}
}

// TestQuantileFarTail: a heavy tail puts levels near 1 at arguments the
// Fourier integral cannot reach (α = 0.5: level 0.9999 at x ≈ 1.6·10⁷);
// the quantile is found there, inverts the CDF, and sits where the
// leading tail term C(α)·x^(−α), C(½) = 1/√(2π), says it should.
func TestQuantileFarTail(t *testing.T) {
	d := mustNew(0.5)
	for _, q := range []float64{0.999, 0.9999, 0.999999} {
		x, err := d.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		back, err := d.CDF(x)
		if err != nil || math.Abs(back-q) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v, %v", q, back, err)
		}
		if lead := math.Pow((1-q)*math.Sqrt(2*math.Pi), -2); math.Abs(x/lead-1) > 0.05 {
			t.Errorf("Quantile(%v) = %v, leading tail term puts it near %v", q, x, lead)
		}
	}
}

func TestQuantileClosedForms(t *testing.T) {
	cauchy := mustNew(1)
	got, err := cauchy.Quantile(0.75)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("Cauchy Q(0.75) = %v, %v; want 1", got, err)
	}
	normal := mustNew(2)
	got, err = normal.Quantile(0.975)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.959963984540054) > 1e-6 {
		t.Errorf("Normal Q(0.975) = %v, want 1.96", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	d := mustNew(1.5)
	for _, q := range []float64{0, 1, -0.1, 1.1} {
		if _, err := d.Quantile(q); err == nil {
			t.Errorf("Quantile(%v): expected error", q)
		}
	}
}

func TestAnalyticUnavailableBelowRange(t *testing.T) {
	d := mustNew(0.1)
	if d.HasAnalytic() {
		t.Error("alpha 0.1 should not have analytic functions")
	}
	if _, err := d.CDF(1); err == nil {
		t.Error("CDF: expected error")
	}
	if _, err := d.Quantile(0.75); err == nil {
		t.Error("Quantile: expected error")
	}
	if _, err := MedianAbsAnalytic(0.1); err == nil {
		t.Error("MedianAbsAnalytic: expected error")
	}
	if _, err := MedianAbsAnalytic(-1); err == nil {
		t.Error("MedianAbsAnalytic bad alpha: expected error")
	}
}

func TestMedianAbsAnalyticMatchesKnown(t *testing.T) {
	// B(1) = 1 exactly; B(2) = Φ⁻¹(0.75) under the N(0,1) convention.
	got, err := MedianAbsAnalytic(1)
	if err != nil || math.Abs(got-1) > 1e-9 {
		t.Errorf("B(1) analytic = %v, %v", got, err)
	}
	got, err = MedianAbsAnalytic(2)
	if err != nil || math.Abs(got-0.6744897501960817) > 1e-6 {
		t.Errorf("B(2) analytic = %v, %v", got, err)
	}
}

func TestMedianAbsAnalyticMatchesMonteCarlo(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.75, 1.25, 1.5} {
		analytic, err := MedianAbsAnalytic(alpha)
		if err != nil {
			t.Fatalf("alpha %v: %v", alpha, err)
		}
		// Independent Monte-Carlo estimate.
		d := mustNew(alpha)
		rng := rand.New(rand.NewPCG(7, uint64(alpha*1000)))
		const n = 300_000
		abs := make([]float64, n)
		for i := range abs {
			abs[i] = math.Abs(d.Sample(rng))
		}
		sort.Float64s(abs)
		mc := abs[n/2]
		if math.Abs(analytic-mc)/mc > 0.01 {
			t.Errorf("alpha %v: analytic B = %v vs Monte-Carlo %v", alpha, analytic, mc)
		}
	}
}

func TestMedianAbsUsesAnalyticPath(t *testing.T) {
	// MedianAbs for an analytic-range alpha must agree with the direct
	// analytic computation bit-for-bit (it is the same code path, cached).
	want, err := MedianAbsAnalytic(1.31)
	if err != nil {
		t.Fatal(err)
	}
	if got := MedianAbs(1.31); got != want {
		t.Errorf("MedianAbs(1.31) = %v, want analytic %v", got, want)
	}
	// Below the analytic range the Monte-Carlo path still works.
	if got := MedianAbs(0.2); !(got > 0) {
		t.Errorf("MedianAbs(0.2) = %v", got)
	}
}

func TestHeavyTailCDFOrdering(t *testing.T) {
	// At a far tail point, smaller alpha has more mass beyond it.
	x := 20.0
	f05, _ := mustNew(0.5).CDF(x)
	f10, _ := mustNew(1.0).CDF(x)
	f15, _ := mustNew(1.5).CDF(x)
	t05, t10, t15 := 1-f05, 1-f10, 1-f15
	if !(t05 > t10 && t10 > t15) {
		t.Errorf("tail masses not ordered: %v, %v, %v", t05, t10, t15)
	}
}
