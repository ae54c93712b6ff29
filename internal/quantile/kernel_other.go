//go:build !amd64

package quantile

// Off amd64 the Go bodies are the only encoding (cpu.AVX2 is false), and
// the functions below are never called.

func firstBelowAVX2Run([]float64, []float64, uint64, int) int {
	panic("quantile: no AVX2 encoding")
}

func absMedianAVX2([]float64, []float64) (uint64, uint64, bool) {
	panic("quantile: no AVX2 encoding")
}
