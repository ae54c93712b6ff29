package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// TestAllPathsAgreeOnExactDyadicRect pins the implementation unification:
// for an exactly dyadic rectangle, the direct Sketcher, the PlaneSet, the
// Cache, and the Pool must produce numerically identical sketches when
// seeded identically (they share one definition of the random matrices).
func TestAllPathsAgreeOnExactDyadicRect(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tb := randTable(rng, 16, 16)
	rect := table.Rect{R0: 3, C0: 5, Rows: 4, Cols: 8}
	const p, k = 1.0, 8

	seed := poolSketcherSeed(777, 2, 3, 0)
	sk, err := NewSketcher(p, k, 4, 8, seed)
	if err != nil {
		t.Fatal(err)
	}

	direct := sk.Sketch(tb.Linearize(rect, nil), nil)

	planes := sk.AllPositions(tb)
	fromPlanes := planes.SketchAt(rect.R0, rect.C0, nil)

	cache := NewCache(tb, sk)
	fromCache := cache.SketchOf(rect)

	pool, err := NewPool(tb, p, k, 777, PoolOptions{
		MinLogRows: 2, MaxLogRows: 2, MinLogCols: 3, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fromPool, err := pool.Sketch(rect, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < k; i++ {
		if direct[i] != fromCache[i] {
			t.Errorf("entry %d: cache %v != direct %v", i, fromCache[i], direct[i])
		}
		// FFT-computed planes are a lane rounding and float noise away.
		if !laneNear(fromPlanes[i], direct[i], 1e-9*(1+math.Abs(direct[i]))) {
			t.Errorf("entry %d: planes %v != direct %v", i, fromPlanes[i], direct[i])
		}
		if fromPool[i] != fromPlanes[i] {
			t.Errorf("entry %d: pool %v != planes %v", i, fromPool[i], fromPlanes[i])
		}
	}
}

// Property (testing/quick): sketches are additive — s(x) + s(y) = s(x+y)
// exactly (dot products are linear), for arbitrary input vectors.
func TestQuickSketchAdditivity(t *testing.T) {
	sk, err := NewSketcher(0.7, 5, 2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [6]float64, raw2 [6]float64) bool {
		x := raw[:]
		y := raw2[:]
		for i := range x {
			if !finite(x[i]) || !finite(y[i]) {
				return true
			}
			// Bound magnitudes so exact float equality of the two
			// evaluation orders is plausible (associativity differences
			// stay below the comparison threshold).
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
		}
		sum := make([]float64, 6)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		sx := sk.Sketch(x, nil)
		sy := sk.Sketch(y, nil)
		ss := sk.Sketch(sum, nil)
		for i := range ss {
			if math.Abs(ss[i]-(sx[i]+sy[i])) > 1e-6*(1+math.Abs(ss[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the distance estimate is symmetric and zero on identical
// sketches for arbitrary sketch vectors.
func TestQuickDistanceSymmetry(t *testing.T) {
	for _, p := range []float64{1, 2} { // the median estimator, and L2 at p = 2
		sk, err := NewSketcher(p, 7, 2, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		f := func(a, b [7]float64) bool {
			for i := range a {
				if !finite(a[i]) || !finite(b[i]) {
					return true
				}
			}
			d1 := sk.Distance(a[:], b[:])
			d2 := sk.Distance(b[:], a[:])
			if d1 != d2 {
				return false
			}
			if sk.Distance(a[:], a[:]) != 0 {
				return false
			}
			return d1 >= 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("p = %v: %v", p, err)
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
