package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fft"
	"repro/internal/table"
)

// seedPlanes overwrites every writable band of every plane set with
// values a gather can get wrong where a build never puts them: −0,
// denormals, magnitudes whose four-fold sum stays just finite in float32
// (a sum widened too late overflows, one widened too early does not
// round), beside ordinary ones.
func seedPlanes(pl *Pool, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x6a7))
	special := []fft.Lane{0x8000, 0, 0x0001, 0x8001, 0x0080, 0x8080,
		fft.NarrowLane(8e37), fft.NarrowLane(-8e37)}
	for _, id := range pl.Lanes() {
		ps := pl.entries[[2]int{id.I, id.J}][id.S]
		for bi := range ps.bands {
			if ps.bands[bi].ext {
				continue
			}
			d := ps.bands[bi].data
			for i := range d {
				if rng.IntN(3) == 0 {
					d[i] = fft.NarrowLane(rng.NormFloat64() * 100)
				} else {
					d[i] = special[rng.IntN(len(special))]
				}
			}
		}
	}
}

// TestSketchGatherMatchesAddSketchAt: Pool.Sketch of a compound
// rectangle is, bit for bit, its four corners' lanes — each read through
// SketchAt, the exact widening of the stored lane — summed in float32 in set
// order and widened once, on a heap pool and on a banded one whose
// corners straddle the sealed boundary, over planes seeded with −0,
// denormals and extremes, at lane counts around the loop's natural block
// sizes. Accumulating the corners in float64 (AddSketchAt) agrees to
// float32 rounding, not bit for bit.
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
							x0, x1 := sets[0].SketchAt(r0, c0, nil), sets[1].SketchAt(r2, c0, nil)
							x2, x3 := sets[2].SketchAt(r0, c2, nil), sets[3].SketchAt(r2, c2, nil)
							want, wide := make([]float64, k), make([]float64, k)
							for i := range want {
								want[i] = float64(float32(x0[i]) + float32(x1[i]) + float32(x2[i]) + float32(x3[i]))
							}
							sets[0].AddSketchAt(r0, c0, wide)
							sets[1].AddSketchAt(r2, c0, wide)
							sets[2].AddSketchAt(r0, c2, wide)
							sets[3].AddSketchAt(r2, c2, wide)
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
								// Three float32 additions, each within 2⁻²⁴ of a partial
								// sum no larger than Σ|x| (or a denormal's spacing).
								mag := math.Abs(x0[i]) + math.Abs(x1[i]) + math.Abs(x2[i]) + math.Abs(x3[i])
								if math.Abs(got[i]-wide[i]) > 0x1p-22*mag+0x1p-147 {
									t.Fatalf("%s k=%d %v lane %d: float32 sum %v, float64 sum %v", name, k, rect, i, got[i], wide[i])
								}
							}
							if c0+b <= pl.sealed && c2+b > pl.sealed { // a tile is sealed with its last column
								straddled++
							}
							// Four −0 corners sum to −0 (nothing is added to a zero
							// start), and the bit comparison above saw it.
							for i := range want {
								if math.Signbit(x0[i]) && math.Signbit(x1[i]) && math.Signbit(x2[i]) && math.Signbit(x3[i]) &&
									x0[i] == 0 && x1[i] == 0 && x2[i] == 0 && x3[i] == 0 {
									if !math.Signbit(got[i]) {
										t.Fatalf("%s k=%d %v lane %d: four −0 corners summed to +0", name, k, rect, i)
									}
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

// TestAVX2GatherMatchesGo holds gather's AVX2 encoding to its Go body,
// bit for bit (NaNs included), on exactly dyadic and compound corners at
// sketch sizes on both sides of the eight-lane block, starting anywhere
// in their slices. The lanes mix ordinary values with ±0, lane
// subnormals, lanes whose four-fold float32 sum overflows, and ±Inf
// (whose opposite signs sum to a NaN).
func TestAVX2GatherMatchesGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 (or no OS-enabled YMM state) on this CPU: only the Go body runs here")
	}
	rng := rand.New(rand.NewPCG(40, 41))
	special := []fft.Lane{0x8000, 0, 0x0001, 0x8001, 0x0080, 0x8080,
		fft.NarrowLane(8e37), fft.NarrowLane(-8e37), fft.NarrowLane(2e38), fft.NarrowLane(-2e38), 0x7f80, 0xff80}
	lanes := func(k int) []fft.Lane {
		off := rng.IntN(9)
		x := make([]fft.Lane, off+k)
		for i := range x {
			if rng.IntN(2) == 0 {
				x[i] = fft.NarrowLane(rng.NormFloat64() * 100)
			} else {
				x[i] = special[rng.IntN(len(special))]
			}
		}
		return x[off:]
	}
	for _, k := range []int{1, 2, 3, 7, 8, 15, 16, 63, 64, 65, 128} {
		for trial := 0; trial < 50; trial++ {
			cn := corners{lanes(k)}
			if trial%2 == 1 {
				cn[1], cn[2], cn[3] = lanes(k), lanes(k), lanes(k)
			}
			got, want := make([]float64, k), make([]float64, k)
			gatherAVX2(got, &cn)
			gatherGo(want, &cn)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d trial %d lane %d: AVX2 %v (%#x), Go body %v (%#x)", k, trial, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
