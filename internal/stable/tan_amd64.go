package stable

// tanAVX2 sets x[i] = math.Tan(x[i]) for i < n, n a multiple of 4, every
// |x[i]| below 2^29 or not finite (tan_amd64.s).
//
//go:noescape
func tanAVX2(x *float64, n int)

// tansAVX2 is the AVX2 encoding of tans: four lanes a step, the last
// len(x) mod 4 in Go.
func tansAVX2(x []float64) {
	if n := len(x) &^ 3; n > 0 {
		tanAVX2(&x[0], n)
		x = x[n:]
	}
	tansGo(x)
}
