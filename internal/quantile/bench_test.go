package quantile

import (
	"math"
	"math/rand/v2"
	"testing"
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

func BenchmarkAbsMedianDiff(b *testing.B) {
	const k = 64
	x, y := benchPairs(k)
	s := NewScratch(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += AbsMedianDiff(x[i%len(x)], y[i%len(y)], s)
	}
}

// BenchmarkMedianBelow is the count-only exit of AbsMedianDiffBelow: the
// bound is below every median, which is what all but a few candidates of a
// nearest scan see.
func BenchmarkMedianBelow(b *testing.B) {
	const k = 64
	x, y := benchPairs(k)
	s := NewScratch(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, ok := AbsMedianDiffBelow(x[i%len(x)], y[i%len(y)], 1e-3, s); ok {
			benchSink += m
		}
	}
}
