//go:build !amd64

package stable

// Off amd64 the Go body is the only encoding (cpu.AVX2 is false), and
// the function below is never called.

func tansAVX2([]float64) { panic("stable: no AVX2 encoding") }
