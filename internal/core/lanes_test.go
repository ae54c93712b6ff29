package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fft"
	"repro/internal/table"
	"repro/internal/workload"
)

// The one rule for a stored lane against a float64 reference. A lane is
// float32(v) for the float64 v the FFT computed, and v is within tol of
// an independent oracle (tol is the FFT's absolute noise, relative to
// the plane's magnitude, not the lane's: a lane near zero has a float32
// spacing finer than it). Rounding is monotone, so the lane lies between
// the roundings of the oracle's tol-neighbours — which for a lane of
// ordinary magnitude is the oracle rounded to float32, give or take one
// ulp.
func roundsNear(lane float32, oracle, tol float64) bool {
	return float32(oracle-tol) <= lane && lane <= float32(oracle+tol)
}

// withinUlp32 reports whether a and b are one float32 or adjacent ones.
func withinUlp32(a, b float32) bool {
	return a == b || math.Nextafter32(a, b) == b
}

// lanesNear is the same rule between two stored lanes whose float64
// sources are within tol of each other: adjacent float32s where tol is
// below their spacing, within tol and a rounding each side otherwise.
func lanesNear(a, b float32, tol float64) bool {
	return withinUlp32(a, b) || math.Abs(float64(a)-float64(b)) <= 2*tol
}

// float64Lanes is the pool a float64 lane element would give, computed
// without the FFT: plane (set, lane) is the dense dot product of the
// sketcher's random matrix with every tile position
// (AllPositionsNaive's loop, left in float64), position-major.
type float64Lanes struct {
	pl         *Pool
	a, b       int // the pool's one dyadic size
	rows, cols int // anchor positions
	sets       [compoundSets][]float64
	tol        [compoundSets][]float64 // per lane: the FFT's absolute noise allowance
}

func newFloat64Lanes(tb *table.Table, pl *Pool) *float64Lanes {
	o := &float64Lanes{pl: pl, a: 1 << pl.opts.MinLogRows, b: 1 << pl.opts.MinLogCols}
	o.rows, o.cols = tb.Rows()-o.a+1, tb.Cols()-o.b+1
	var data2 float64
	for _, v := range tb.Data() {
		data2 += v * v
	}
	for s, ps := range pl.entries[[2]int{pl.opts.MinLogRows, pl.opts.MinLogCols}] {
		o.sets[s] = make([]float64, o.rows*o.cols*pl.k)
		o.tol[s] = make([]float64, pl.k)
		for i, mat := range ps.sk.mats {
			plane := fft.CrossCorrelateValidNaive(tb.Data(), tb.Rows(), tb.Cols(), mat, o.a, o.b)
			for pos, v := range plane {
				o.sets[s][pos*pl.k+i] = v
			}
			// A planned round trip is within about ε·‖kernel‖₂·‖table‖₂ of
			// the dense dot product at every position (measured: 1.1e-16
			// at worst over these seeds and p), the kernel being the packed
			// pair (2j, 2j+1) the lane rode in — at p = 0.5 one matrix's
			// outlier is its partner's noise. A hundred times that.
			var pair2 float64
			for _, m := range ps.sk.mats[i&^1 : min(i|1, pl.k-1)+1] {
				for _, v := range m {
					pair2 += v * v
				}
			}
			o.tol[s][i] = 1e-14 * math.Sqrt(pair2*data2)
		}
	}
	return o
}

// sketch is Pool.Sketch over float64 lanes: one position, or four summed
// in set order in float64.
func (o *float64Lanes) sketch(rect table.Rect) []float64 {
	k := o.pl.k
	at := func(s, r, c int) []float64 { return o.sets[s][(r*o.cols+c)*k:][:k] }
	out := append([]float64(nil), at(0, rect.R0, rect.C0)...)
	if rect.Rows == o.a && rect.Cols == o.b {
		return out
	}
	r2, c2 := rect.R0+rect.Rows-o.a, rect.C0+rect.Cols-o.b
	for _, x := range [][]float64{at(1, r2, rect.C0), at(2, rect.R0, c2), at(3, r2, c2)} {
		for i, v := range x {
			out[i] += v
		}
	}
	return out
}

// TestFloat32LanesAgainstFloat64Oracle is the paired accuracy check of
// the float32 lane: over seeds, tables (call volumes, whose neighbouring
// tiles differ by far less than their magnitude, and noise) and p, every
// stored lane is the float64 oracle's value rounded to float32 (the
// roundsNear rule), every sketch-tier distance — dyadic and four-corner
// compound — is within 1e-4 relative of the distance float64 lanes give,
// and the nearest tile of every grid tile is the same tile or one the
// float64 lanes put within 1e-4 of it.
func TestFloat32LanesAgainstFloat64Oracle(t *testing.T) {
	const k, logTile, seeds = 16, 3, 10
	const tile = 1 << logTile
	for _, p := range []float64{0.5, 1, 2} {
		var lanes, exact int
		var worst float64
		for seed := uint64(1); seed <= seeds; seed++ {
			tb := workload.Random(24, 56, 50, seed)
			if seed%2 == 0 {
				var err error
				if tb, _, err = workload.CallVolume(workload.CallVolumeConfig{Stations: 24, Days: 1, Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
			pl, err := NewPool(tb, p, k, seed, PoolOptions{
				MinLogRows: logTile, MaxLogRows: logTile, MinLogCols: logTile, MaxLogCols: logTile,
			})
			if err != nil {
				t.Fatal(err)
			}
			o := newFloat64Lanes(tb, pl)
			for s, ps := range pl.entries[[2]int{logTile, logTile}] {
				for n, lane := range ps.bands[0].data {
					want := o.sets[s][n]
					if !roundsNear(lane, want, o.tol[s][n%k]) {
						t.Fatalf("p=%v seed %d set %d lane %d: stored %v, float64 oracle %v ± %.3g (float32 %v)",
							p, seed, s, n, float64(lane), want, o.tol[s][n%k], float64(float32(want)))
					}
					lanes++
					if lane == float32(want) {
						exact++
					}
				}
			}

			dist := pl.SketchDist()
			check := func(ra, rb table.Rect) {
				got, err := pl.Distance(ra, rb)
				if err != nil {
					t.Fatal(err)
				}
				want := dist(o.sketch(ra), o.sketch(rb))
				rel := math.Abs(got-want) / want
				worst = math.Max(worst, rel)
				if !(rel <= 1e-4) {
					t.Errorf("p=%v seed %d %v vs %v: distance %v over float32 lanes, %v over float64 lanes (%.2e relative)",
						p, seed, ra, rb, got, want, rel)
				}
			}
			rng := rand.New(rand.NewPCG(seed, 0x1a9e5))
			for n := 0; n < 200; n++ {
				h, w := tile+1+rng.IntN(tile-1), tile+1+rng.IntN(tile-1)
				if n%4 == 0 {
					h, w = tile, tile // exactly dyadic, at any anchor
				}
				ra := table.Rect{R0: rng.IntN(tb.Rows() - h + 1), C0: rng.IntN(tb.Cols() - w + 1), Rows: h, Cols: w}
				rb := table.Rect{R0: rng.IntN(tb.Rows() - h + 1), C0: rng.IntN(tb.Cols() - w + 1), Rows: h, Cols: w}
				if ra != rb {
					check(ra, rb)
				}
			}

			// Tile-nearest over the grid, both ways.
			var grid []table.Rect
			for r := 0; r+tile <= tb.Rows(); r += tile {
				for c := 0; c+tile <= tb.Cols(); c += tile {
					grid = append(grid, table.Rect{R0: r, C0: c, Rows: tile, Cols: tile})
				}
			}
			for q, rq := range grid {
				best32, best64 := -1, -1
				var d32, d64 float64
				for c, rc := range grid {
					if c == q {
						continue
					}
					g, err := pl.Distance(rq, rc)
					if err != nil {
						t.Fatal(err)
					}
					w := dist(o.sketch(rq), o.sketch(rc))
					if best32 < 0 || g < d32 {
						best32, d32 = c, g
					}
					if best64 < 0 || w < d64 {
						best64, d64 = c, w
					}
				}
				if best32 != best64 {
					if at32 := dist(o.sketch(rq), o.sketch(grid[best32])); !(at32-d64 <= 1e-4*d64) {
						t.Errorf("p=%v seed %d tile %d: nearest %d over float32 lanes, %d over float64 lanes, and no tie (%v vs %v)",
							p, seed, q, best32, best64, at32, d64)
					}
				}
			}
		}
		t.Logf("p=%v: %d of %d lanes are exactly float32(oracle), worst relative distance difference %.2e",
			p, exact, lanes, worst)
		// A lane off by one is an oracle value within FFT noise of a
		// rounding boundary: rare.
		if exact < lanes*99/100 {
			t.Errorf("p=%v: only %d of %d lanes equal the oracle rounded to float32", p, exact, lanes)
		}
	}
}

// LaneBytes is what every byte count of lanes is derived from; it has to
// be the element it names.
func TestLaneBytesIsTheLaneElement(t *testing.T) {
	if got := reflect.TypeOf(laneBand{}.data).Elem().Size(); got != LaneBytes {
		t.Fatalf("laneBand.data element is %d bytes, LaneBytes = %d", got, LaneBytes)
	}
}
