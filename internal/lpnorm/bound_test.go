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

// checkBound fails unless both bounds of (a, b) — the row bound and the
// one-number total bound — are finite, non-negative numbers at or below
// their computed power sum. It returns them in that order.
func checkBound(t *testing.T, lp P, a, b []float64, rows, cols int, what string) (row, total float64) {
	t.Helper()
	ma, mb := tileMarginals(a, rows, cols), tileMarginals(b, rows, cols)
	row, total = lp.MarginalLowerBound(ma, mb, cols), lp.TotalLowerBound(ma, mb, cols)
	sum := tilePowSum(lp, a, b, rows, cols)
	for i, bound := range []float64{row, total} {
		grain := []string{"row", "total"}[i]
		if !(bound >= 0) || math.IsInf(bound, 0) {
			t.Fatalf("p=%v %dx%d %s: %s bound %v is not a finite non-negative number", lp.p, rows, cols, what, grain, bound)
		}
		if bound > sum {
			t.Fatalf("p=%v %dx%d %s: %s bound %v (%x) above the power sum %v (%x)",
				lp.p, rows, cols, what, grain, bound, math.Float64bits(bound), sum, math.Float64bits(sum))
		}
	}
	return row, total
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
// rounding allows. The edge adversaries leave rounding to decide between
// the two bounds: the tiles differ by about what their sums round away, or
// (offset) both bounds equal the distance over the reals.
var adversaries = []struct {
	name string
	edge bool
	b    func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64
}{
	{"independent", false, func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64 {
		return randTile(rng, len(a), mag)
	}},
	{"equal", false, func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		return append([]float64(nil), a...)
	}},
	// b = a + c: at p = 1 both bounds equal the distance over the reals, and
	// at p ≥ 1 each other.
	{"offset", true, func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := (rng.Float64()*2 - 1) * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c
		}
		return b
	}},
	// A small offset on large, nearly equal tiles: the marginals' rounding
	// error scales with the tiles, the difference of the sums does not.
	{"small offset", true, func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := (rng.Float64()*2 - 1) * mag * 1e-13
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c
		}
		return b
	}},
	// ±1 ulp a cell with alternating sign: the true row sums differ by next
	// to nothing, the computed ones by whatever the additions rounded to.
	{"alternating ulp", true, func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = ulps(v, 1-2*(i%2))
		}
		return b
	}},
	{"one-sided ulp", true, func(rng *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = ulps(v, 1+rng.IntN(3))
		}
		return b
	}},
	// Rows offset in opposite directions: row sums see every row, the
	// tile's total sees at most one.
	{"opposite rows", false, func(rng *rand.Rand, a []float64, rows, cols int, mag float64) []float64 {
		c := rng.Float64() * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c*float64(1-2*(i/cols%2))
		}
		return b
	}},
	// Cells of one row offset in opposite directions: the row sum sees
	// nothing, and must not claim to.
	{"opposite cells", false, func(rng *rand.Rand, a []float64, _, _ int, mag float64) []float64 {
		c := rng.Float64() * mag
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + c*float64(1-2*(i%2))
		}
		return b
	}},
	{"zeros", false, func(_ *rand.Rand, a []float64, _, _ int, _ float64) []float64 {
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
// argument could get wrong, both bounds stay at or below the power sum the
// scans compute — overflowing magnitudes included — and are worth
// something where they should be; away from the edge adversaries the
// total bound is never above the row bound.
func TestLowerBoundNeverExceedsPowSum(t *testing.T) {
	mags := []float64{1, 1e9, 1e300, 1e307, 1e-300, 5e-324 * 1000, 1e-160, 1e150}
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
			row, total := checkBound(t, lp, a, b, rows, cols, adv.name)
			checkBound(t, lp, b, a, rows, cols, adv.name+" (swapped)")
			// Elsewhere the reals can still make the two equal (a one-column
			// tile whose rows differ with one sign), so allow the last bits.
			if !adv.edge && total > row*(1+0x1p-40) {
				t.Fatalf("p=%v %dx%d %s at %v: total bound %v above row bound %v", p, rows, cols, adv.name, mag, total, row)
			}
			if adv.name == "offset" && mag == 1 && total > 0 {
				useful++
			}
		}
		if useful == 0 {
			t.Errorf("p=%v: no constant offset at magnitude 1 got a positive total bound; the test is vacuous", p)
		}
	}
}

// TestLowerBoundIsTightWhereItCanBe pins the inequality's constants: on a
// constant offset c the row bound is rows·(cols·c)^p·cols^(−max(p−1, 0))
// and the total bound (rows·cols·c)^p·(rows·cols)^(−max(p−1, 0)) — both
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
		row, total := checkBound(t, lp, a, b, rows, cols, "offset")
		wantRow := rows * math.Pow(cols*c, p) * math.Pow(cols, -math.Max(p-1, 0))
		wantTotal := math.Pow(rows*cols*c, p) * math.Pow(rows*cols, -math.Max(p-1, 0))
		if math.Abs(row-wantRow) > 1e-9*wantRow {
			t.Errorf("p=%v: row bound %v on a constant offset, want %v", p, row, wantRow)
		}
		if math.Abs(total-wantTotal) > 1e-9*wantTotal {
			t.Errorf("p=%v: total bound %v on a constant offset, want %v", p, total, wantTotal)
		}
		if dist := tilePowSum(lp, a, b, rows, cols); p == 1 && math.Abs(total-dist) > 1e-9*dist {
			t.Errorf("p=1: total bound %v on a constant offset, distance %v", total, dist)
		}
	}
}

// TestTotalBoundIsBlindToOppositeRows: rows offset in opposite directions
// cancel in the tile's total, so the one-number bound certifies nothing
// where the row bound certifies the whole distance at p = 1. That is what
// the row tier is kept for.
func TestTotalBoundIsBlindToOppositeRows(t *testing.T) {
	const rows, cols, c = 4, 8, 0.5
	a := randTile(rand.New(rand.NewPCG(3, 4)), rows*cols, 1)
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = v + c*float64(1-2*(i/cols%2))
	}
	for _, p := range []float64{0.5, 1, 1.25, 2} {
		row, total := checkBound(t, MustP(p), a, b, rows, cols, "opposite rows")
		if total != 0 || !(row > 0) {
			t.Errorf("p=%v: total bound %v and row bound %v on opposite rows, want 0 and > 0", p, total, row)
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
		ma := tileMarginals(a, rows, cols)
		if !math.IsInf(ma[0], 1) || !math.IsInf(ma[rows], 1) || !math.IsInf(ma[rows+1], 1) {
			t.Fatalf("fixture does not overflow: %v", ma)
		}
		if row, total := checkBound(t, lp, a, b, rows, cols, "overflow"); row != 0 || total != 0 {
			t.Errorf("p=%v: bounds %v and %v from overflowed marginals, want 0", p, row, total)
		}
	}
}

// FuzzMarginalLowerBound hands both bounds arbitrary finite cells.
func FuzzMarginalLowerBound(f *testing.F) {
	f.Add(uint64(1), 4, 4, 1.0, 0.0, 1)
	f.Add(uint64(2), 1, 9, 1e300, 1e299, 0)
	f.Add(uint64(3), 8, 3, 1e9, 1e-7, 2)
	f.Add(uint64(4), 2, 2, 1e-310, 1e-320, 3)
	f.Add(uint64(5), 11, 39, 1e306, 1e306, 1) // A and S overflow
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
