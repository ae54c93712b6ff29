// Package cpu is the one CPU probe of the program's assembly kernels:
// whether the AVX2 encodings (internal/fft's butterflies and harvest,
// internal/quantile's count and median, internal/core's gather) run.
// The probe runs once at start-up; no option or environment variable
// selects an encoding.
package cpu

// AVX2 reports whether the kernels run their AVX2 encodings: on amd64,
// the CPU has AVX2 and POPCNT and the OS has enabled YMM state; off
// amd64, never. Tests that hold an encoding to the Go bodies clear it to
// run the Go bodies on the same machine, and restore it.
var AVX2 = avx2Usable()

// WithoutAVX2 clears AVX2, so every kernel runs its Go body, and returns
// the func that restores it: a test oracle's `defer cpu.WithoutAVX2()()`.
func WithoutAVX2() (restore func()) {
	was := AVX2
	AVX2 = false
	return func() { AVX2 = was }
}

// EachEncoding runs f as the subtest (or sub-benchmark) "go" on the Go
// bodies and, where the probe found AVX2, as "avx2" on the AVX2
// encodings. T is *testing.T or *testing.B.
func EachEncoding[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	t.Run("go", func(t T) { defer WithoutAVX2()(); f(t) })
	if AVX2 {
		t.Run("avx2", f)
	}
}
