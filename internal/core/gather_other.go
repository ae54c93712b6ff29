//go:build !amd64

package core

// Off amd64 the Go body is the only encoding of gather (cpu.AVX2 is
// false): gatherAVX2 is never called, and a prefetch is not issued.

func gatherAVX2([]float64, *corners) { panic("core: no AVX2 encoding") }

func prefetchCorners(*corners) {}
