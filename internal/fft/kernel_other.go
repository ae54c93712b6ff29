//go:build !amd64

package fft

// Off amd64 the Go bodies are the only encoding (cpu.AVX2 is false), and
// the functions below are never called.

func (k *kernel) forwardAVX2([]complex128)                         { panic("fft: no AVX2 encoding") }
func (k *kernel) inverseAVX2([]complex128)                         { panic("fft: no AVX2 encoding") }
func (k *kernel) forwardColsAVX2([]complex128, int, int, int, int) { panic("fft: no AVX2 encoding") }
func (k *kernel) inverseColsAVX2([]complex128, int, int, int)      { panic("fft: no AVX2 encoding") }

func mirrorProductAVX2(_, _, _, _ []complex128, _ bool) { panic("fft: no AVX2 encoding") }
func twiddleRowAVX2(_, _ []complex128, _ complex128)    { panic("fft: no AVX2 encoding") }
func harvestLinesAVX2([]*[]complex128, int, int, int, []Lane, int, int) {
	panic("fft: no AVX2 encoding")
}
