package core

import "repro/internal/fft"

// The assembly bodies (gather_amd64.s). n is a positive multiple of 8,
// and every pointer addresses the first of n lanes of its slice.

// widenAVX2 sets dst[i] = float64(x0[i].Float32()) for i < n.
//
//go:noescape
func widenAVX2(dst *float64, x0 *fft.Lane, n int)

// sumAVX2 sets dst[i] = float64(x0[i].Float32() + x1[i].Float32() +
// x2[i].Float32() + x3[i].Float32()) for i < n.
//
//go:noescape
func sumAVX2(dst *float64, x0, x1, x2, x3 *fft.Lane, n int)

// prefetchCorners asks for the cache lines of cn's positions, without
// waiting for them.
//
//go:noescape
func prefetchCorners(cn *corners)

// gatherAVX2 is gather's AVX2 encoding: the lanes in whole blocks of
// eight in assembly, the rest through the Go body.
func gatherAVX2(dst []float64, cn *corners) {
	k := len(dst)
	n := k &^ 7
	if n > 0 {
		x0 := cn[0][:k]
		if cn[1] == nil {
			widenAVX2(&dst[0], &x0[0], n)
		} else {
			x1, x2, x3 := cn[1][:k], cn[2][:k], cn[3][:k]
			sumAVX2(&dst[0], &x0[0], &x1[0], &x2[0], &x3[0], n)
		}
	}
	if n < k {
		var tail corners
		for s, x := range cn {
			if x != nil {
				tail[s] = x[n:k]
			}
		}
		gatherGo(dst[n:], &tail)
	}
}
