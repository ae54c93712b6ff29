package fft

// The parallel sketching layer correlates through plans from many
// goroutines at once, so the twiddle cache (a sync.Map keyed by size)
// must tolerate concurrent first-touch of the same and different sizes.
// This test is meaningful under `go test -race` (see `make race`): it
// fails there if the cache or any shared transform state races.

import (
	"math"
	"sync"
	"testing"
)

func TestConcurrentTransformsShareTwiddleCache(t *testing.T) {
	// Fresh sizes may or may not be cached already depending on test
	// order; hammer a spread of sizes from many goroutines either way.
	sizes := []int{8, 16, 32, 64, 128, 256}
	const goroutines = 8

	data := make([]float64, 24*24)
	for i := range data {
		data[i] = math.Sin(float64(i) * 0.7)
	}
	kernel := make([]float64, 5*5)
	for i := range kernel {
		kernel[i] = float64(i%3) - 1
	}
	want := correlate(NewPlan2D(data, 24, 24), kernel, 5, 5)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// 1D transforms on every size, interleaved across goroutines.
			for _, n := range sizes {
				buf := make([]complex128, n)
				for i := range buf {
					buf[i] = complex(float64(i+g), 0)
				}
				FFT(buf)
			}
			// And the full 2D cross-correlation path, which must produce
			// the same floats no matter how many goroutines run it.
			got := correlate(NewPlan2D(data, 24, 24), kernel, 5, 5)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: correlation entry %d = %v, want %v", g, i, got[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
