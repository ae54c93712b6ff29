package fft

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// wideComplex draws n complex128s whose parts span the float64 range a
// transform of up to 4 096 points cannot overflow: a share zeros of them
// ±0, one in eight of the rest subnormal, the others of magnitude 1e-300
// to 1e300, every sign random. A multiply by a twiddle of 1 can change
// only the sign of a zero, and that shows in an output only when every
// input it sums is zero, so the test also runs nearly empty transforms.
func wideComplex(rng *rand.Rand, n int, zeros float64) []complex128 {
	part := func() float64 {
		var v float64
		switch {
		case rng.Float64() < zeros:
			v = 0
		case rng.IntN(8) == 0:
			v = math.Float64frombits(rng.Uint64N(1<<52-1) + 1)
		default:
			v = math.Pow(10, 600*rng.Float64()-300)
		}
		if rng.IntN(2) == 0 {
			v = -v
		}
		return v
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(part(), part())
	}
	return v
}

// zeroShares are the two kinds of input: dense, and nearly all zero.
var zeroShares = []float64{0.25, 0.97}

// firstBitDiff is the first index at which a and b differ in the bits
// of either part, or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// Each AVX2 body must leave the Go body's bits in every element it
// writes and touch nothing else: the vector bodies at every length to
// 4 096, the column bodies at every length to 512 over runs of odd and
// even width at unaligned offsets, and one whole block correlation at the
// two shapes BenchmarkCorrelateBlock times, once through each encoding.
func TestAVX2BodiesMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 (or no OS-enabled YMM state) on this CPU: only the Go bodies run here")
	}
	rng := rand.New(rand.NewPCG(33, 33))
	// same runs both encodings of one body on copies of in and compares
	// every element of the two; width locates a difference in a matrix.
	same := func(t *testing.T, what string, in []complex128, width int, goBody, avx2 func([]complex128)) {
		t.Helper()
		want, got := slices.Clone(in), slices.Clone(in)
		goBody(want)
		avx2(got)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s: (%d,%d) = %v, Go body %v", what, i/width, i%width, got[i], want[i])
		}
	}
	t.Run("vector", func(t *testing.T) {
		for n := 1; n <= 4096; n <<= 1 {
			k := kernelFor(n)
			for _, zeros := range zeroShares {
				in := wideComplex(rng, n, zeros)
				what := fmt.Sprintf("n=%d zeros=%v", n, zeros)
				same(t, what+" forward", in, n, k.forwardGo, k.forwardAVX2)
				same(t, what+" inverse", in, n, k.inverseGo, k.inverseAVX2)
			}
		}
	})
	t.Run("columns", func(t *testing.T) {
		const r0 = 2 // forwardCols's row offset; one more row below
		for pr := 1; pr <= 512; pr <<= 1 {
			k := kernelFor(pr)
			for _, w := range []int{1, 2, 3, 5, 64, 97, 128} {
				for _, c0 := range []int{0, 1, 3} {
					stride := c0 + w + 2
					for _, zeros := range zeroShares {
						in := wideComplex(rng, (r0+pr+1)*stride, zeros)
						what := fmt.Sprintf("pr=%d width %d at c0=%d zeros=%v", pr, w, c0, zeros)
						same(t, what+" forward", in, stride,
							func(d []complex128) { k.forwardColsGo(d, stride, r0, c0, c0+w) },
							func(d []complex128) { k.forwardColsAVX2(d, stride, r0, c0, c0+w) })
						same(t, what+" inverse", in, stride,
							func(d []complex128) { k.inverseColsGo(d, stride, c0, c0+w) },
							func(d []complex128) { k.inverseColsAVX2(d, stride, c0, c0+w) })
					}
				}
			}
		}
	})
	t.Run("correlate", func(t *testing.T) {
		const k, edge = 64, 32
		kernels := make([][]float64, BlockLanes)
		for i := range kernels {
			kernels[i] = randSlice(rng, edge*edge)
		}
		for _, shape := range []struct {
			name                   string
			rows, cols, sub, plane int
		}{
			{"fixture", 256, 1024, 1024 - edge + 1, 1024 - edge + 1},
			{"slab/sub32", 128, 2*edge - 1, 32, 2 * edge},
			{"slab/sub1", 128, 2*edge - 1, 1, 2 * edge},
		} {
			p := NewPlan2D(randSlice(rng, shape.rows*shape.cols), shape.rows, shape.cols)
			outRows, _ := p.OutDims(edge, edge)
			run := func(avx2 bool) ([]float32, []float64) {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = avx2
				block := make([]float32, outRows*shape.plane*k)
				if err := p.CorrelateBlockValidSub(context.Background(), kernels, edge, edge, shape.sub,
					block, shape.plane*k, k); err != nil {
					t.Fatal(err)
				}
				pair := make([]float64, 2*outRows*shape.sub)
				p.CorrelatePairValidSub(kernels[0], kernels[1], edge, edge, shape.sub,
					pair, shape.sub, 1, pair[outRows*shape.sub:], shape.sub, 1)
				return block, pair
			}
			goBlock, goPair := run(false)
			block, pair := run(true)
			for i := range block {
				if math.Float32bits(block[i]) != math.Float32bits(goBlock[i]) {
					t.Fatalf("%s: block lane element %d = %v, Go bodies %v", shape.name, i, block[i], goBlock[i])
				}
			}
			for i := range pair {
				if math.Float64bits(pair[i]) != math.Float64bits(goPair[i]) {
					t.Fatalf("%s: pair element %d = %v, Go bodies %v", shape.name, i, pair[i], goPair[i])
				}
			}
		}
	})
}
