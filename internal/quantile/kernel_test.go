package quantile

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// laneValues draws the values a gathered sketch lane takes: a float32 (a
// sum of bfloat16 lanes) widened to float64. kind picks the mix: Cauchy
// lanes alone; Cauchy lanes among ±0, lane subnormals (a bfloat16
// subnormal and its four-fold sum) and the largest finite float32s, with
// ±Inf (float32 sums that overflowed) as well for "inf"; or small
// integers, whose differences tie.
func laneValues(rng *rand.Rand, n int, kind string) []float64 {
	special := []float32{0, float32(math.Copysign(0, -1)),
		math.Float32frombits(0x0001 << 16), -math.Float32frombits(0x0001 << 16),
		4 * math.Float32frombits(0x007f<<16), math.MaxFloat32, -math.MaxFloat32}
	v := make([]float64, n)
	for i := range v {
		switch {
		case kind == "ties":
			v[i] = float64(rng.IntN(8)) // many equal keys, in every order
		case kind == "cauchy" || rng.IntN(3) == 0:
			v[i] = float64(float32(math.Tan(math.Pi * (rng.Float64() - 0.5))))
		case kind == "inf" && rng.IntN(4) == 0:
			v[i] = math.Inf(1 - 2*rng.IntN(2))
		default:
			v[i] = float64(special[rng.IntN(len(special))])
		}
	}
	return v
}

// TestAVX2KernelsMatchGo holds the AVX2 count and median to the Go
// bodies: the row firstBelow returns over runs of 0, 1 and many rows, at
// bounds 0, +Inf, each row's own median and the next key above it, and
// the central keys of each row where the registers select them (k = 64)
// — over Cauchy lanes, zero rows, copies of the query, ±0, lane
// subnormals and ±Inf lanes (whose differences are NaNs), at sketch sizes
// on both sides of every block and register width. Each run is also cut
// at every row, so every row is the answer of some run.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 (or no OS-enabled YMM state) on this CPU: only the Go bodies run here")
	}
	rng := rand.New(rand.NewPCG(40, 40))
	for _, k := range []int{1, 2, 3, 7, 8, 15, 16, 63, 64, 65, 128} {
		for _, kind := range []string{"cauchy", "special", "inf", "ties"} {
			for _, nrows := range []int{0, 1, 9, 60} {
				what := fmt.Sprintf("k=%d %s lanes, %d rows", k, kind, nrows)
				q := laneValues(rng, k, kind)
				rows := make([]float64, 0, nrows*k)
				for r := 0; r < nrows; r++ {
					switch r % 3 {
					case 0:
						rows = append(rows, laneValues(rng, k, kind)...)
					case 1:
						rows = append(rows, q...) // a copy: every difference ±0
					default:
						rows = append(rows, make([]float64, k)...)
					}
				}
				bounds := []float64{0, math.Inf(1)}
				s := NewScratch(k)
				for r := 0; r < nrows; r++ {
					row := rows[r*k : (r+1)*k]
					keys, buf := s.split(k)
					absDiffKeys(keys, q, row)
					nan := slices.ContainsFunc(keys, func(key uint64) bool { return key > math.Float64bits(math.Inf(1)) })
					lo, hi := medianKeys(keys, buf)
					if k == medianLanes {
						// A NaN key is not in the registers' order: the row goes
						// back to the Go body, which orders it above +Inf's.
						gotLo, gotHi, ok := absMedianAVX2(q, row)
						if ok == nan || ok && (gotLo != lo || gotHi != hi) {
							t.Fatalf("%s: row %d central keys %#x, %#x (selected %v), Go body %#x, %#x (NaN %v)",
								what, r, gotLo, gotHi, ok, lo, hi, nan)
						}
					}
					m := absMedian(lo, hi, k)
					bounds = append(bounds, m, math.Float64frombits(math.Float64bits(m)+1))
				}
				for _, bound := range bounds {
					b := math.Float64bits(bound)
					for from := 0; from <= nrows; from++ {
						run := rows[from*k:]
						if got, want := firstBelowAVX2Run(q, run, b, belowNeed(k)), firstBelowGo(q, run, b, belowNeed(k)); got != want {
							t.Fatalf("%s: count from row %d at bound %v: row %d, Go body row %d", what, from, bound, got, want)
						}
					}
				}
			}
		}
	}
}
