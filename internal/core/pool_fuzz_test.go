package core

// Fuzz target for Pool rectangle queries: any rectangle the pool accepts
// must produce exactly the Definition 4 compound sketch — the sum of the
// four corner-anchored dyadic sketches from the four independent sets,
// each computed brute-force as k direct dot products over the linearized
// tile (no FFT). This cross-checks dyadicFor's size selection, the
// corner-anchor arithmetic, the build's per-panel FFT correlations and
// the compound assembly against the straightforward definition. The pool
// is drawn from PanelCols ∈ {0, 2, 4, 8} over one table: one table-wide
// panel per size, and several panels per size whose width w =
// max(PanelCols, b) equals the size or is wider.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/table"
	"repro/internal/workload"
)

var fuzzPanelCols = [...]int{0, 2, 4, 8}

var fuzzPool struct {
	once sync.Once
	tb   *table.Table
	pls  [len(fuzzPanelCols)]*Pool
}

func fuzzPoolSetup(t testing.TB, panel uint8) (*table.Table, *Pool) {
	fuzzPool.once.Do(func() {
		fuzzPool.tb = workload.Random(32, 32, 3, 0xF0)
		for i, pc := range fuzzPanelCols {
			pl, err := NewPool(fuzzPool.tb, 1.25, 8, 0xF1, PoolOptions{
				MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3, PanelCols: pc,
			})
			if err != nil {
				panic(err)
			}
			fuzzPool.pls[i] = pl
		}
	})
	return fuzzPool.tb, fuzzPool.pls[int(panel)%len(fuzzPanelCols)]
}

// bruteForceCompound recomputes the pool sketch of rect from first
// principles: pick the dyadic size Definition 4 prescribes, linearize the
// four corner-anchored dyadic tiles, sketch each with the matching
// independent set's sketcher (direct float64 dot products), and sum as
// the pool does — each corner narrowed to a lane, the lanes widened and
// added in float32 in set order. For exactly dyadic rects only set 0's corner
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
			lanes[j] = fft.NarrowLane(v + sign*1e-8*(1+math.Abs(v))).Float32()
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
	f.Add(0, 0, 4, 8, uint8(0))   // exact dyadic, one table-wide panel
	f.Add(3, 5, 7, 11, uint8(1))  // compound, panels as wide as each size
	f.Add(10, 2, 13, 6, uint8(2)) // compound, both extents odd-sized, w = 4 over sizes 2 and 4
	f.Add(24, 24, 8, 8, uint8(3)) // dyadic at the far corner, one width 8 for every size
	f.Add(1, 1, 2, 2, uint8(0))   // smallest pooled size
	f.Add(5, 9, 3, 15, uint8(1))  // compound across panel boundaries
	f.Add(0, 6, 16, 10, uint8(2)) // compound starting mid-panel
	f.Add(7, 17, 9, 7, uint8(3))  // compound past the first panel
	f.Fuzz(func(t *testing.T, r0, c0, rows, cols int, panel uint8) {
		tb, pl := fuzzPoolSetup(t, panel)
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
