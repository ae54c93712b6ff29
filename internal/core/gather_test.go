package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/table"
)

// seedPlanes overwrites every writable band of every plane set with
// values a gather can get wrong where a build never puts them: −0 (a sum
// that skips the zero start keeps its sign), denormals, magnitudes whose
// four-fold sum stays just finite, beside ordinary ones.
func seedPlanes(pl *Pool, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x6a7))
	special := []float64{
		math.Copysign(0, -1), 0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 4e307, -4e307,
	}
	for _, id := range pl.Lanes() {
		ps := pl.entries[[2]int{id.I, id.J}][id.S]
		for bi := range ps.bands {
			if ps.bands[bi].ext {
				continue
			}
			d := ps.bands[bi].data
			for i := range d {
				if rng.IntN(3) == 0 {
					d[i] = rng.NormFloat64() * 100
				} else {
					d[i] = special[rng.IntN(len(special))]
				}
			}
		}
	}
}

// TestSketchGatherMatchesAddSketchAt: Pool.Sketch of a compound
// rectangle is, bit for bit, a zeroed vector accumulated corner after
// corner — on a heap pool and on a banded one whose corners straddle the
// sealed boundary, over planes seeded with −0, denormals and extremes,
// at lane counts around the loop's natural block sizes.
func TestSketchGatherMatchesAddSketchAt(t *testing.T) {
	tb := bandedTestTable(12, 24, 3)
	opts := bandedTestOpts(1)
	for _, k := range []int{1, 7, 8, 64, 65} {
		heap, err := NewPool(tb, 1, k, 5, opts)
		if err != nil {
			t.Fatalf("k=%d: NewPool: %v", k, err)
		}
		seedPlanes(heap, 11)
		// The sealed bands adopt the seeded bytes; the fringe is built from
		// the table and then seeded as well.
		banded, err := NewBandedPool(tb, 1, k, 5, opts, sealFromPool(t, heap, 12, 4))
		if err != nil {
			t.Fatalf("k=%d: NewBandedPool: %v", k, err)
		}
		seedPlanes(banded, 12)

		for name, pl := range map[string]*Pool{"heap": heap, "banded": banded} {
			straddled, negZero := 0, false
			for rows := 2; rows <= 8; rows++ {
				for cols := 2; cols <= 8; cols++ {
					ei, _ := dyadicFor(rows, opts.MinLogRows, opts.MaxLogRows)
					ej, _ := dyadicFor(cols, opts.MinLogCols, opts.MaxLogCols)
					a, b := 1<<ei, 1<<ej
					if rows == a && cols == b {
						continue // exact dyadic: a copy, not a gather
					}
					sets := pl.entries[[2]int{ei, ej}]
					for r0 := 0; r0+rows <= 12; r0 += 3 {
						for c0 := 0; c0+cols <= 24; c0++ {
							rect := table.Rect{R0: r0, C0: c0, Rows: rows, Cols: cols}
							r2, c2 := r0+rows-a, c0+cols-b
							want := make([]float64, k)
							sets[0].AddSketchAt(r0, c0, want)
							sets[1].AddSketchAt(r2, c0, want)
							sets[2].AddSketchAt(r0, c2, want)
							sets[3].AddSketchAt(r2, c2, want)
							got, err := pl.Sketch(rect, nil)
							if err != nil {
								t.Fatalf("%s k=%d: Sketch(%v): %v", name, k, rect, err)
							}
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%s k=%d %v lane %d: gather %v (%#x), accumulate %v (%#x)", name, k, rect, i,
										got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
								}
								if math.IsInf(want[i], 0) || math.IsNaN(want[i]) {
									t.Fatalf("%s k=%d %v lane %d: seeded planes summed to %v", name, k, rect, i, want[i])
								}
							}
							if c0+b <= pl.sealed && c2+b > pl.sealed { // a tile is sealed with its last column
								straddled++
							}
							// Four −0 corners: the sum from zero is +0.
							for i := range want {
								if want[i] == 0 && !math.Signbit(want[i]) &&
									math.Signbit(sets[0].lanes(r0, c0)[i]) && math.Signbit(sets[1].lanes(r2, c0)[i]) &&
									math.Signbit(sets[2].lanes(r0, c2)[i]) && math.Signbit(sets[3].lanes(r2, c2)[i]) {
									negZero = true
								}
							}
						}
					}
				}
			}
			if name == "banded" && straddled == 0 {
				t.Errorf("k=%d: no compound rectangle straddled the sealed boundary", k)
			}
			if k >= 64 && !negZero {
				t.Errorf("%s k=%d: no lane had four −0 corners; the seeding is too thin", name, k)
			}
		}
	}
}
