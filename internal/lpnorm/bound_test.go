package lpnorm

import (
	"math"
	"math/rand/v2"
	"testing"
)

// tilePowSum is the distance power sum of two rows × cols tiles as every
// scan accumulates it: DistPowSum row by row, the row sums added in order.
func tilePowSum(lp P, a, b []float64, rows, cols int) float64 {
	var s float64
	for r := 0; r < rows; r++ {
		s += lp.DistPowSum(a[r*cols:(r+1)*cols], b[r*cols:(r+1)*cols])
	}
	return s
}

func tileMarginals(a []float64, rows, cols int) []float64 {
	return Marginals(nil, rows, func(r int) []float64 { return a[r*cols : (r+1)*cols] })
}

// checkBound fails unless the bound of (a, b) is a finite, non-negative
// number at or below their computed power sum.
func checkBound(t *testing.T, lp P, a, b []float64, rows, cols int, what string) float64 {
	t.Helper()
	bound := lp.MarginalLowerBound(tileMarginals(a, rows, cols), tileMarginals(b, rows, cols), cols)
	sum := tilePowSum(lp, a, b, rows, cols)
	if !(bound >= 0) || math.IsInf(bound, 0) {
		t.Fatalf("p=%v %dx%d %s: bound %v is not a finite non-negative number", lp.p, rows, cols, what, bound)
	}
	if bound > sum {
		t.Fatalf("p=%v %dx%d %s: bound %v (%x) above the power sum %v (%x)",
			lp.p, rows, cols, what, bound, math.Float64bits(bound), sum, math.Float64bits(sum))
	}
	return bound
}

// ulps returns v moved n units in the last place.
func ulps(v float64, n int) float64 {
	for ; n > 0; n-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; n < 0; n++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// adversary builds the b of a tile pair chosen to put the bound and the
// power sum as close together, or the marginals as far from the truth, as
// rounding allows.
var adversaries = []struct {
	name string
	b    func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64
}{
	{"independent", func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64 {
		return randTile(rng, len(a), mag)
	}},
	{"equal", func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		return append([]float64(nil), a...)
	}},
	// b = a + c: at p = 1 the bound equals the distance over the reals.
	{"offset", func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := (rng.Float64()*2 - 1) * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c
		}
		return b
	}},
	// A small offset on large, nearly equal tiles: the marginals' rounding
	// error scales with the tiles, the difference of the sums does not.
	{"small offset", func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := (rng.Float64()*2 - 1) * mag * 1e-13
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c
		}
		return b
	}},
	// ±1 ulp a cell with alternating sign: the true row sums differ by next
	// to nothing, the computed ones by whatever the additions rounded to.
	{"alternating ulp", func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = ulps(v, 1-2*(i%2))
		}
		return b
	}},
	{"one-sided ulp", func(rng *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = ulps(v, 1+rng.IntN(3))
		}
		return b
	}},
	// Rows offset in opposite directions: row sums see every row, a tile
	// sum would see nothing.
	{"opposite rows", func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64 {
		c := rng.Float64() * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c*float64(1-2*(i/cols%2))
		}
		return b
	}},
	// Cells of one row offset in opposite directions: the row sum sees
	// nothing, and must not claim to.
	{"opposite cells", func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := rng.Float64() * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c*float64(1-2*(i%2))
		}
		return b
	}},
	{"zeros", func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		return make([]float64, len(a))
	}},
}

func randTile(rng *rand.Rand, n int, mag float64) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = (rng.Float64()*2 - 1) * mag
	}
	return a
}

// TestLowerBoundNeverExceedsPowSum: over 10⁵ seeded tile pairs a rounding
// argument could get wrong, the bound stays at or below the power sum the
// scans compute — and is worth something where it should be.
func TestLowerBoundNeverExceedsPowSum(t *testing.T) {
	mags := []float64{1, 1e9, 1e300, 1e-300, 5e-324 * 1000, 1e-160, 1e150}
	shapes := [][2]int{{1, 1}, {1, 7}, {5, 1}, {4, 4}, {8, 8}, {3, 33}, {32, 32}}
	for _, p := range []float64{0.5, 1, 1.25, 2} {
		lp := MustP(p)
		rng := rand.New(rand.NewPCG(0xB07D, math.Float64bits(p)))
		useful := 0
		for trial := 0; trial < 25000; trial++ {
			shape := shapes[rng.IntN(len(shapes))]
			if trial%50 != 0 && shape[0]*shape[1] > 64 {
				shape = shapes[rng.IntN(4)] // the big tiles are 2% of the trials
			}
			rows, cols := shape[0], shape[1]
			mag := mags[rng.IntN(len(mags))]
			a := randTile(rng, rows*cols, mag)
			if rng.IntN(4) == 0 {
				for i := range a {
					a[i] = math.Abs(a[i]) // one-signed: Σ|cell| = |Σ cell|, no cancellation to hide in
				}
			}
			adv := adversaries[trial%len(adversaries)]
			b := adv.b(rng, a, rows, cols, mag)
			bound := checkBound(t, lp, a, b, rows, cols, adv.name)
			checkBound(t, lp, b, a, rows, cols, adv.name+" (swapped)")
			if adv.name == "offset" && mag == 1 && bound > 0 {
				useful++
			}
		}
		if useful == 0 {
			t.Errorf("p=%v: no constant offset at magnitude 1 got a positive bound; the test is vacuous", p)
		}
	}
}

// TestLowerBoundIsTightWhereItCanBe pins the inequality's constants: on a
// constant offset c the bound is rows·(cols·c)^p·cols^(−max(p−1, 0)) —
// the distance itself at p = 1. A bound that lost a factor is still
// sound, so no soundness test can see it; this one can.
func TestLowerBoundIsTightWhereItCanBe(t *testing.T) {
	const rows, cols, c = 6, 16, 0.75
	a := randTile(rand.New(rand.NewPCG(1, 2)), rows*cols, 1)
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = v + c
	}
	for _, p := range []float64{0.5, 1, 1.25, 2} {
		lp := MustP(p)
		bound := checkBound(t, lp, a, b, rows, cols, "offset")
		want := rows * math.Pow(cols*c, p) * math.Pow(cols, -math.Max(p-1, 0))
		if math.Abs(bound-want) > 1e-9*want {
			t.Errorf("p=%v: bound %v on a constant offset, want %v", p, bound, want)
		}
	}
}

// TestLowerBoundOverflow: marginals that overflow certify nothing, and a
// row the overflow did not reach still counts.
func TestLowerBoundOverflow(t *testing.T) {
	const rows, cols = 2, 4
	big := math.MaxFloat64 / 2
	a := []float64{big, big, big, big, 1, 2, 3, 4}
	b := []float64{-big, -big, -big, -big, 4, 3, 2, 1}
	for _, p := range []float64{0.5, 1, 2} {
		lp := MustP(p)
		ma, mb := tileMarginals(a, rows, cols), tileMarginals(b, rows, cols)
		if !math.IsInf(ma[0], 1) || !math.IsInf(ma[rows], 1) {
			t.Fatalf("fixture does not overflow: %v", ma)
		}
		if bound := lp.MarginalLowerBound(ma, mb, cols); bound != 0 {
			t.Errorf("p=%v: bound %v from overflowed marginals, want 0", p, bound)
		}
		checkBound(t, lp, a, b, rows, cols, "overflow")
	}
}

// FuzzMarginalLowerBound hands the bound arbitrary finite cells.
func FuzzMarginalLowerBound(f *testing.F) {
	f.Add(uint64(1), 4, 4, 1.0, 0.0, 1)
	f.Add(uint64(2), 1, 9, 1e300, 1e299, 0)
	f.Add(uint64(3), 8, 3, 1e9, 1e-7, 2)
	f.Add(uint64(4), 2, 2, 1e-310, 1e-320, 3)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols int, mag, offset float64, pi int) {
		rows, cols = 1+abs(rows)%12, 1+abs(cols)%40
		if math.IsNaN(mag) || math.IsInf(mag, 0) || math.IsNaN(offset) || math.IsInf(offset, 0) {
			return
		}
		lp := MustP([]float64{0.5, 1, 1.25, 2}[abs(pi)%4])
		rng := rand.New(rand.NewPCG(seed, 0xF022))
		a := randTile(rng, rows*cols, mag)
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + offset
			if seed%3 == 0 {
				b[i] = ulps(b[i], rng.IntN(5)-2)
			}
			if math.IsInf(b[i], 0) {
				b[i] = math.Copysign(math.MaxFloat64, b[i]) // tables hold finite cells
			}
		}
		checkBound(t, lp, a, b, rows, cols, "fuzz")
		checkBound(t, lp, b, a, rows, cols, "fuzz (swapped)")
	})
}

func abs(v int) int {
	if v < 0 {
		return -(v + 1)
	}
	return v
}
