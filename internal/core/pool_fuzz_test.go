package core

// Fuzz target for Pool rectangle queries: any rectangle the pool accepts
// must produce exactly the Definition 4 compound sketch — the sum of the
// four corner-anchored dyadic sketches from the four independent sets,
// each computed brute-force as k direct dot products over the linearized
// tile (no FFT). This cross-checks dyadicFor's size selection, the
// corner-anchor arithmetic, AllPositions' FFT planes and the compound
// assembly against the straightforward definition.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/table"
	"repro/internal/workload"
)

var fuzzPool struct {
	once sync.Once
	tb   *table.Table
	pl   *Pool
}

func fuzzPoolSetup(t testing.TB) (*table.Table, *Pool) {
	fuzzPool.once.Do(func() {
		fuzzPool.tb = workload.Random(32, 32, 3, 0xF0)
		pl, err := NewPool(fuzzPool.tb, 1.25, 8, 0xF1, PoolOptions{
			MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3,
		})
		if err != nil {
			panic(err)
		}
		fuzzPool.pl = pl
	})
	return fuzzPool.tb, fuzzPool.pl
}

// bruteForceCompound recomputes the pool sketch of rect from first
// principles: pick the dyadic size Definition 4 prescribes, linearize the
// four corner-anchored dyadic tiles, sketch each with the matching
// independent set's sketcher (direct float64 dot products), and sum as
// the pool does — each corner rounded to a float32 lane, the lanes added
// in float32 in set order. For exactly dyadic rects only set 0's corner
// sketch is used, matching Pool.Sketch. Every corner entry is moved by
// sign times the FFT's round-off allowance before it is rounded: rounding
// and float32 addition are monotone, so the pool's sketch lies between
// the sign = −1 and sign = +1 results (the roundsNear rule, carried
// through the sum).
func bruteForceCompound(t *testing.T, tb *table.Table, pl *Pool, rect table.Rect, sign float64) []float64 {
	t.Helper()
	ei, err := dyadicFor(rect.Rows, pl.opts.MinLogRows, pl.opts.MaxLogRows)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := dyadicFor(rect.Cols, pl.opts.MinLogCols, pl.opts.MaxLogCols)
	if err != nil {
		t.Fatal(err)
	}
	a, b := 1<<ei, 1<<ej
	sets := pl.entries[[2]int{ei, ej}]
	sketchAt := func(set, r0, c0 int) []float32 {
		vec := tb.Linearize(table.Rect{R0: r0, C0: c0, Rows: a, Cols: b}, nil)
		lanes := make([]float32, pl.k)
		for j, v := range sets[set].Sketcher().Sketch(vec, nil) {
			// FFT round-off vs direct dot products: tight relative band.
			lanes[j] = float32(v + sign*1e-8*(1+math.Abs(v)))
		}
		return lanes
	}
	out := make([]float64, pl.k)
	if rect.Rows == a && rect.Cols == b {
		for j, v := range sketchAt(0, rect.R0, rect.C0) {
			out[j] = float64(v)
		}
		return out
	}
	r2 := rect.R0 + rect.Rows - a
	c2 := rect.C0 + rect.Cols - b
	x0, x1 := sketchAt(0, rect.R0, rect.C0), sketchAt(1, r2, rect.C0)
	x2, x3 := sketchAt(2, rect.R0, c2), sketchAt(3, r2, c2)
	for j := range out {
		out[j] = float64(x0[j] + x1[j] + x2[j] + x3[j])
	}
	return out
}

func FuzzPoolSketchRect(f *testing.F) {
	f.Add(0, 0, 4, 8)   // exact dyadic
	f.Add(3, 5, 7, 11)  // compound
	f.Add(10, 2, 13, 6) // compound, both extents odd-sized
	f.Add(24, 24, 8, 8) // dyadic at the far corner
	f.Add(1, 1, 2, 2)   // smallest pooled size
	f.Fuzz(func(t *testing.T, r0, c0, rows, cols int) {
		tb, pl := fuzzPoolSetup(t)
		rect := table.Rect{R0: r0, C0: c0, Rows: rows, Cols: cols}
		if pl.CanSketch(rect) != nil {
			t.Skip()
		}
		got, err := pl.Sketch(rect, nil)
		if err != nil {
			t.Fatalf("CanSketch accepted %v but Sketch failed: %v", rect, err)
		}
		lo, hi := bruteForceCompound(t, tb, pl, rect, -1), bruteForceCompound(t, tb, pl, rect, 1)
		for i := range got {
			if got[i] < lo[i] || got[i] > hi[i] {
				t.Errorf("rect %v entry %d: pool %v, brute force between %v and %v", rect, i, got[i], lo[i], hi[i])
			}
		}
	})
}
