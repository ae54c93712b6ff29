package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
	"repro/internal/quantile"
	"repro/internal/stable"
)

func TestKForAccuracy(t *testing.T) {
	k1, err := KForAccuracy(0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if k1%2 == 0 {
		t.Errorf("k = %d should be odd", k1)
	}
	k2, _ := KForAccuracy(0.2, 0.01)
	if k2 >= k1 {
		t.Errorf("larger eps should shrink k: %d vs %d", k2, k1)
	}
	k3, _ := KForAccuracy(0.1, 0.001)
	if k3 <= k1 {
		t.Errorf("smaller delta should grow k: %d vs %d", k3, k1)
	}
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-1, 0.5}} {
		if _, err := KForAccuracy(bad[0], bad[1]); err == nil {
			t.Errorf("KForAccuracy(%v, %v): expected error", bad[0], bad[1])
		}
	}
}

func TestNewSketcherValidation(t *testing.T) {
	if _, err := NewSketcher(1, 0, 4, 4, 1); err == nil {
		t.Error("k=0: expected error")
	}
	if _, err := NewSketcher(1, 8, 0, 4, 1); err == nil {
		t.Error("rows=0: expected error")
	}
	if _, err := NewSketcher(3, 8, 4, 4, 1); err == nil {
		t.Error("p=3: expected error")
	}
	sk, err := NewSketcher(1.5, 9, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sk.P() != 1.5 || sk.K() != 9 || sk.Rows() != 4 || sk.Cols() != 6 {
		t.Error("accessor mismatch")
	}
	if sk.Scale() <= 0 {
		t.Error("Scale must be positive")
	}
	if len(sk.mats[0]) != 24 {
		t.Error("Matrix length wrong")
	}
}

// Every sketcher parameter NewSketcher refuses, checkSketcher refuses
// with the same error, and so does NewPool, which checks without
// drawing a matrix; tile dims are NewSketcher's alone (a pool's are
// powers of two).
func TestSketcherParamErrors(t *testing.T) {
	tb := randTable(rand.New(rand.NewPCG(3, 3)), 8, 8)
	opts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2, Workers: 1}
	for _, c := range []struct {
		name       string
		p          float64
		k          int
		rows, cols int
		want       string
	}{
		{"k=0", 1, 0, 4, 4, "core: sketch size k = 0 must be positive"},
		{"k<0", 1, -3, 4, 4, "core: sketch size k = -3 must be positive"},
		{"p=0", 0, 8, 4, 4, "stable: alpha 0 outside (0, 2]"},
		{"p>2", 2.5, 8, 4, 4, "stable: alpha 2.5 outside (0, 2]"},
		{"p=NaN", math.NaN(), 8, 4, 4, "stable: alpha NaN outside (0, 2]"},
		{"rows=0", 1, 8, 0, 4, "core: non-positive tile dims 0x4"},
		{"cols<0", 1, 8, 4, -1, "core: non-positive tile dims 4x-1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSketcher(c.p, c.k, c.rows, c.cols, 1)
			if err == nil || err.Error() != c.want {
				t.Fatalf("NewSketcher: error %v, want %q", err, c.want)
			}
			if _, _, err := checkSketcher(c.p, c.k, c.rows, c.cols); err == nil || err.Error() != c.want {
				t.Fatalf("checkSketcher: error %v, want %q", err, c.want)
			}
			if c.rows <= 0 || c.cols <= 0 {
				return
			}
			if _, err := NewPool(tb, c.p, c.k, 1, opts); err == nil || err.Error() != c.want {
				t.Fatalf("NewPool: error %v, want %q", err, c.want)
			}
		})
	}
}

func TestSketcherDeterministic(t *testing.T) {
	a, _ := NewSketcher(1, 5, 3, 3, 42)
	b, _ := NewSketcher(1, 5, 3, 3, 42)
	for i := 0; i < 5; i++ {
		ma, mb := a.mats[i], b.mats[i]
		for j := range ma {
			if ma[j] != mb[j] {
				t.Fatalf("matrices differ at (%d,%d) for equal seeds", i, j)
			}
		}
	}
	c, _ := NewSketcher(1, 5, 3, 3, 43)
	same := true
	for j := range a.mats[0] {
		if a.mats[0][j] != c.mats[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

func TestSketchLinearity(t *testing.T) {
	// The sketch map is linear: s(αx + y) = α·s(x) + s(y). This property
	// is what makes compound sketches and sketch-space centroids valid.
	sk, _ := NewSketcher(1.3, 7, 4, 4, 7)
	rng := rand.New(rand.NewPCG(1, 1))
	x := randVec(rng, 16)
	y := randVec(rng, 16)
	const alpha = -2.5
	combo := make([]float64, 16)
	for i := range combo {
		combo[i] = alpha*x[i] + y[i]
	}
	sx := sk.Sketch(x, nil)
	sy := sk.Sketch(y, nil)
	sc := sk.Sketch(combo, nil)
	for i := range sc {
		want := alpha*sx[i] + sy[i]
		if math.Abs(sc[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("linearity violated at %d: %v vs %v", i, sc[i], want)
		}
	}
}

func TestSketchZeroVector(t *testing.T) {
	sk, _ := NewSketcher(0.8, 5, 2, 2, 3)
	s := sk.Sketch(make([]float64, 4), nil)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("sketch of zero vector has nonzero entry %d: %v", i, v)
		}
	}
	if d := sk.Distance(s, s); d != 0 {
		t.Errorf("Distance(s,s) = %v, want 0", d)
	}
}

func TestSketchPanicsWrongLength(t *testing.T) {
	sk, _ := NewSketcher(1, 5, 2, 2, 3)
	assertPanics(t, "short vec", func() { sk.Sketch(make([]float64, 3), nil) })
	assertPanics(t, "short sketch", func() { sk.Distance(make([]float64, 4), make([]float64, 5)) })
}

func TestSketchBufferReuse(t *testing.T) {
	sk, _ := NewSketcher(1, 5, 2, 2, 3)
	buf := make([]float64, 8)
	out := sk.Sketch([]float64{1, 2, 3, 4}, buf)
	if &out[0] != &buf[0] {
		t.Error("Sketch did not reuse provided buffer")
	}
	if len(out) != 5 {
		t.Errorf("len = %d, want 5", len(out))
	}
}

// TestDistanceAccuracy is the headline statistical check of Theorems 1–2:
// with k = O(ε⁻² log 1/δ) entries, the sketch estimate falls within a
// small relative error of the exact Lp distance.
func TestDistanceAccuracy(t *testing.T) {
	const (
		k      = 501
		dim    = 8 // tiles of 8x8 = 64 entries
		trials = 20
	)
	for _, p := range []float64{0.5, 0.75, 1, 1.25, 2} {
		lp := lpnorm.MustP(p)
		sk, err := NewSketcher(p, k, dim, dim, 99)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(5, uint64(p*1000)))
		var relErrs []float64
		for trial := 0; trial < trials; trial++ {
			x := randVec(rng, dim*dim)
			y := randVec(rng, dim*dim)
			exact := lp.Dist(x, y)
			est := sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
			rel := math.Abs(est-exact) / exact
			relErrs = append(relErrs, rel)
			if rel > 0.4 {
				t.Errorf("p=%v trial %d: rel error %v too large (exact %v, est %v)",
					p, trial, rel, exact, est)
			}
		}
		var sum float64
		for _, r := range relErrs {
			sum += r
		}
		// The median estimator's spread grows as p shrinks (heavier tails,
		// flatter density at the median), so the bound is loose enough to
		// cover p = 0.5 while still catching scaling bugs outright.
		if mean := sum / trials; mean > 0.16 {
			t.Errorf("p=%v: mean relative error %v exceeds 16%%", p, mean)
		}
	}
}

func TestDistanceAccuracyImprovesWithK(t *testing.T) {
	const dim = 6
	p := 1.0
	lp := lpnorm.MustP(p)
	rng := rand.New(rand.NewPCG(6, 6))
	x := randVec(rng, dim*dim)
	y := randVec(rng, dim*dim)
	exact := lp.Dist(x, y)
	meanErr := func(k int) float64 {
		var sum float64
		const reps = 30
		for rep := 0; rep < reps; rep++ {
			sk, _ := NewSketcher(p, k, dim, dim, uint64(1000+rep))
			est := sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
			sum += math.Abs(est-exact) / exact
		}
		return sum / reps
	}
	small, large := meanErr(9), meanErr(301)
	if large >= small {
		t.Errorf("error did not shrink with k: k=9 err %v, k=301 err %v", small, large)
	}
}

func TestEstimatorL2MatchesExactEuclidean(t *testing.T) {
	const k = 301
	sk, _ := NewSketcher(2, k, 8, 8, 11)
	lp := lpnorm.MustP(2)
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 10; trial++ {
		x := randVec(rng, 64)
		y := randVec(rng, 64)
		exact := lp.Dist(x, y)
		est := sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
		if rel := math.Abs(est-exact) / exact; rel > 0.3 {
			t.Errorf("trial %d: L2 estimator rel err %v (exact %v est %v)", trial, rel, exact, est)
		}
	}
}

// At p = 2 the sketcher applies the L2 estimator (§4.4); the median
// estimator, median(|s(x) − s(y)|) / B(2), is valid there too, and the two
// should agree on the same sketches.
func TestMedianEstimatorAtP2AgreesWithL2Estimator(t *testing.T) {
	const k = 501
	sk, _ := NewSketcher(2, k, 6, 6, 13)
	rng := rand.New(rand.NewPCG(8, 8))
	x := randVec(rng, 36)
	y := randVec(rng, 36)
	sa, sb := sk.Sketch(x, nil), sk.Sketch(y, nil)
	s := quantile.NewScratch(k)
	dl := sk.Distance(sa, sb)
	dm := quantile.AbsMedianDiff(sa, sb, s) / stable.MedianAbs(2)
	if rel := math.Abs(dm-dl) / dl; rel > 0.2 {
		t.Errorf("median %v vs L2 %v estimator disagree (rel %v)", dm, dl, rel)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	sk, _ := NewSketcher(1, 21, 4, 4, 17)
	rng := rand.New(rand.NewPCG(9, 9))
	x := randVec(rng, 16)
	y := randVec(rng, 16)
	sx, sy := sk.Sketch(x, nil), sk.Sketch(y, nil)
	if d1, d2 := sk.Distance(sx, sy), sk.Distance(sy, sx); d1 != d2 {
		t.Errorf("asymmetric distance %v vs %v", d1, d2)
	}
}

// TestNormFromSketch: ‖x‖p is the distance to the all-zeros tile, whose
// sketch is all zeros.
func TestNormFromSketch(t *testing.T) {
	const k = 501
	for _, p := range []float64{1, 2} {
		sk, _ := NewSketcher(p, k, 6, 6, 19)
		lp := lpnorm.MustP(p)
		rng := rand.New(rand.NewPCG(10, uint64(p)))
		x := randVec(rng, 36)
		exact := lp.Norm(x)
		est := sk.Distance(sk.Sketch(x, nil), make([]float64, k))
		if rel := math.Abs(est-exact) / exact; rel > 0.3 {
			t.Errorf("p=%v: norm rel err %v (exact %v est %v)", p, rel, exact, est)
		}
	}
}

func TestDistanceScaleEquivariance(t *testing.T) {
	// Scaling both tiles by c scales the estimated distance by |c| exactly
	// (the estimator is positively homogeneous).
	sk, _ := NewSketcher(0.6, 33, 4, 4, 23)
	rng := rand.New(rand.NewPCG(11, 11))
	x := randVec(rng, 16)
	y := randVec(rng, 16)
	const c = 3.5
	cx := scaleVec(x, c)
	cy := scaleVec(y, c)
	d1 := sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
	d2 := sk.Distance(sk.Sketch(cx, nil), sk.Sketch(cy, nil))
	if math.Abs(d2-c*d1) > 1e-9*(1+c*d1) {
		t.Errorf("scale equivariance violated: %v vs %v", d2, c*d1)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 10
	}
	return out
}

func scaleVec(x []float64, c float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = c * v
	}
	return out
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
