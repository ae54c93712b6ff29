package quantile

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
)

// cauchy draws a standard Cauchy variate: a lane of a p = 1 sketch.
func cauchy(rng *rand.Rand) float64 { return math.Tan(math.Pi * (rng.Float64() - 0.5)) }

// benchPairs returns sketch-like vector pairs: k Cauchy lanes each, the
// distribution the p = 1 estimator selects over. Many pairs, so the branch
// predictor cannot learn one input.
func benchPairs(k int) (a, b [][]float64) {
	rng := rand.New(rand.NewPCG(17, 17))
	const pairs = 256
	a, b = make([][]float64, pairs), make([][]float64, pairs)
	for i := range a {
		a[i], b[i] = make([]float64, k), make([]float64, k)
		for l := 0; l < k; l++ {
			a[i][l], b[i][l] = cauchy(rng), cauchy(rng)
		}
	}
	return a, b
}

var benchSink float64

// benchEncodings runs the Go body as the sub-benchmark "go", called
// directly, and the exported entry point — the encoding the CPU probe
// picks — as "avx2" where the probe found AVX2.
func benchEncodings(b *testing.B, goBody, exported func(i int)) {
	for _, enc := range []struct {
		name string
		run  func(i int)
	}{{"go", goBody}, {"avx2", exported}} {
		b.Run(enc.name, func(b *testing.B) {
			if enc.name == "avx2" && !cpu.AVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			for i := 0; i < b.N; i++ {
				enc.run(i)
			}
		})
	}
}

// goAbsMedianDiff is AbsMedianDiff on the Go bodies.
func goAbsMedianDiff(a, b []float64, s Scratch) float64 {
	keys, buf := s.split(len(a))
	absDiffKeys(keys, a, b)
	lo, hi := medianKeys(keys, buf)
	return absMedian(lo, hi, len(a))
}

// BenchmarkAbsMedianDiff is the sketch tier's median at k = 64: the keys
// of the differences, then their two central keys (selectRanks in Go,
// registers in AVX2).
func BenchmarkAbsMedianDiff(b *testing.B) {
	const k = 64
	x, y := benchPairs(k)
	s := NewScratch(k)
	benchEncodings(b, func(i int) {
		benchSink += goAbsMedianDiff(x[i%len(x)], y[i%len(y)], s)
	}, func(i int) {
		benchSink += AbsMedianDiff(x[i%len(x)], y[i%len(y)], s)
	})
}

// BenchmarkFirstBelow is the count on one row at k = 64: the bound is
// below every median, so every row is rejected, which is what all but a
// few candidates of a nearest scan see.
func BenchmarkFirstBelow(b *testing.B) {
	const k = 64
	x, y := benchPairs(k)
	bound := 1e-3
	benchEncodings(b, func(i int) {
		benchSink += float64(firstBelowGo(x[i%len(x)], y[i%len(y)], math.Float64bits(bound), belowNeed(k)))
	}, func(i int) {
		benchSink += float64(FirstBelow(x[i%len(x)], y[i%len(y)], bound))
	})
}
