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

// laneRel bounds the relative error of a stored lane against the
// float64 v it narrows, fft.NarrowLane(v) = bf16(float32(v)): 2⁻⁸ for the
// bfloat16 rounding (half the spacing of its 8 significant bits), 2⁻²³
// for the float32 rounding before it and the product of the two.
const laneRel = 0x1p-8 + 0x1p-23

// laneNear reports whether got, read from a stored lane, is a float64
// computed within noise (absolute) of want, narrowed: within one lane
// rounding of want, plus the noise.
func laneNear(got, want, noise float64) bool {
	return math.Abs(got-want) <= laneRel*math.Abs(want)+noise
}

// roundsNear is the one rule for a stored lane against a float64
// reference. A lane is fft.NarrowLane(v) for the float64 v the FFT
// computed, and v is within tol of an independent oracle (tol is the
// FFT's absolute noise, relative to the plane's magnitude, not the
// lane's: a lane near zero has a spacing finer than it). NarrowLane is
// monotone, so the lane lies between the narrowings of the oracle's
// tol-neighbours — which for a lane of ordinary magnitude is the oracle
// narrowed, give or take one lane.
func roundsNear(lane fft.Lane, oracle, tol float64) bool {
	lo, hi, f := fft.NarrowLane(oracle-tol).Float32(), fft.NarrowLane(oracle+tol).Float32(), lane.Float32()
	return lo <= f && f <= hi
}

// withinUlp reports whether a and b are one lane or adjacent ones of
// the same sign.
func withinUlp(a, b fft.Lane) bool {
	return a == b || (a^b)&0x8000 == 0 && (a-b == 1 || b-a == 1)
}

// lanesNear is the same rule between two stored lanes whose float64
// sources are within tol of each other: adjacent lanes where tol is
// below their spacing, within tol and a rounding each side otherwise.
func lanesNear(a, b fft.Lane, tol float64) bool {
	fa, fb := float64(a.Float32()), float64(b.Float32())
	return withinUlp(a, b) || math.Abs(fa-fb) <= laneRel*(math.Abs(fa)+math.Abs(fb))+2*tol
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
// in set order in float64. err is the most the pool's sketch of rect can
// differ from it, lane by lane: each corner lane within laneRel of its
// magnitude plus the FFT's noise, and the three float32 additions of a
// compound within 2⁻²² of the corners' summed magnitudes.
func (o *float64Lanes) sketch(rect table.Rect) (sum, err []float64) {
	k := o.pl.k
	at := func(s, r, c int) []float64 { return o.sets[s][(r*o.cols+c)*k:][:k] }
	corners := [][3]int{{0, rect.R0, rect.C0}}
	if rect.Rows != o.a || rect.Cols != o.b {
		r2, c2 := rect.R0+rect.Rows-o.a, rect.C0+rect.Cols-o.b
		corners = append(corners, [3]int{1, r2, rect.C0}, [3]int{2, rect.R0, c2}, [3]int{3, r2, c2})
	}
	sum, err = make([]float64, k), make([]float64, k)
	for _, cn := range corners {
		for i, v := range at(cn[0], cn[1], cn[2]) {
			sum[i] += v
			err[i] += laneRel*math.Abs(v) + o.tol[cn[0]][i]
			if len(corners) > 1 {
				err[i] += 0x1p-22 * math.Abs(v)
			}
		}
	}
	return sum, err
}

// distRange is the range an estimate over sketches a and b can take
// when every lane i of each moves by at most ea[i], eb[i]: each
// |aᵢ − bᵢ| then lies in [|aᵢ − bᵢ| − eᵢ, |aᵢ − bᵢ| + eᵢ] (eᵢ = ea[i] +
// eb[i], clipped at 0), and both estimators — a median of the |aᵢ − bᵢ|,
// or √(Σ(aᵢ − bᵢ)²/k) — are monotone in each of them, so the estimate lies
// between their values at the two ends.
func distRange(dist func(a, b []float64) float64, a, b, ea, eb []float64) (lo, hi float64) {
	los, his, zero := make([]float64, len(a)), make([]float64, len(a)), make([]float64, len(a))
	for i := range a {
		d, e := math.Abs(a[i]-b[i]), ea[i]+eb[i]
		los[i], his[i] = math.Max(d-e, 0), d+e
	}
	return dist(los, zero), dist(his, zero)
}

// TestBfloat16LanesAgainstFloat64Oracle is the paired accuracy check of
// the lane element: over seeds, tables (call volumes, whose neighbouring
// tiles differ by far less than their magnitude, and noise) and p, every
// stored lane is the float64 oracle's value narrowed, bf16(float32(v))
// (the roundsNear rule), every sketch-tier distance — dyadic and
// four-corner compound — lies in the distRange of the distance float64
// lanes give (where one lane rounding, 2⁻⁸ of each lane's magnitude, can
// move it), and the nearest tile of every grid tile is the same tile or
// one whose range reaches below the top of the float64 lanes' nearest.
func TestBfloat16LanesAgainstFloat64Oracle(t *testing.T) {
	const k, logTile, seeds = 16, 3, 10
	const tile = 1 << logTile
	for _, p := range []float64{0.5, 1, 2} {
		var lanes, exact, answers, moved int
		var worst, worstBound float64
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
						t.Fatalf("p=%v seed %d set %d lane %d: stored %v, float64 oracle %v ± %.3g (narrowed %v)",
							p, seed, s, n, lane.Float32(), want, o.tol[s][n%k], fft.NarrowLane(want).Float32())
					}
					lanes++
					if lane == fft.NarrowLane(want) {
						exact++
					}
				}
			}

			dist := pl.SketchDist()
			oracle := func(ra, rb table.Rect) (d, lo, hi float64) {
				a, ea := o.sketch(ra)
				b, eb := o.sketch(rb)
				lo, hi = distRange(dist, a, b, ea, eb)
				return dist(a, b), lo, hi
			}
			check := func(ra, rb table.Rect) {
				got, err := pl.Distance(ra, rb)
				if err != nil {
					t.Fatal(err)
				}
				want, lo, hi := oracle(ra, rb)
				answers++
				if got != want {
					moved++
				}
				worst = math.Max(worst, math.Abs(got-want)/want)
				worstBound = math.Max(worstBound, (hi-lo)/2/want)
				if !(lo <= got && got <= hi) {
					t.Errorf("p=%v seed %d %v vs %v: distance %v over stored lanes, %v over float64 lanes, outside [%v, %v]",
						p, seed, ra, rb, got, want, lo, hi)
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
				bestL, best64 := -1, -1
				var dL, d64 float64
				for c, rc := range grid {
					if c == q {
						continue
					}
					g, err := pl.Distance(rq, rc)
					if err != nil {
						t.Fatal(err)
					}
					w, _, _ := oracle(rq, rc)
					if bestL < 0 || g < dL {
						bestL, dL = c, g
					}
					if best64 < 0 || w < d64 {
						best64, d64 = c, w
					}
				}
				if bestL != best64 {
					_, loL, _ := oracle(rq, grid[bestL])
					_, _, hi64 := oracle(rq, grid[best64])
					if !(loL <= hi64) {
						t.Errorf("p=%v seed %d tile %d: nearest %d over stored lanes, %d over float64 lanes, whose ranges [%v, …] and […, %v] do not meet",
							p, seed, q, bestL, best64, loL, hi64)
					}
				}
			}
		}
		t.Logf("p=%v: %d of %d lanes are exactly the oracle narrowed; %d of %d distances moved, worst %.2e relative (widest half-range %.2e)",
			p, exact, lanes, moved, answers, worst, worstBound)
		// A lane off by one is an oracle value within FFT noise of a
		// rounding boundary: rare.
		if exact < lanes*99/100 {
			t.Errorf("p=%v: only %d of %d lanes equal the oracle narrowed", p, exact, lanes)
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
