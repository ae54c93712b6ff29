package fft

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// wideComplex draws n complex128s whose parts span the float64 range a
// transform of up to 4 096 points cannot overflow: a share zeros of them
// ±0, one in eight of the rest subnormal, the others of magnitude
// 10^−decades to 10^decades (300 for a transform, 150 for the operands
// of a product), every sign random. A multiply by a twiddle of 1 can
// change only the sign of a zero, and that shows in an output only when
// every input it sums is zero, so the test also runs nearly empty
// transforms.
func wideComplex(rng *rand.Rand, n int, zeros, decades float64) []complex128 {
	part := func() float64 {
		var v float64
		switch {
		case rng.Float64() < zeros:
			v = 0
		case rng.IntN(8) == 0:
			v = math.Float64frombits(rng.Uint64N(1<<52-1) + 1)
		default:
			v = math.Pow(10, decades*(2*rng.Float64()-1))
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
	if !cpu.AVX2 {
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
				in := wideComplex(rng, n, zeros, 300)
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
						in := wideComplex(rng, (r0+pr+1)*stride, zeros, 300)
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
	t.Run("mirror", func(t *testing.T) {
		for n := 1; n <= 4096; n <<= 1 {
			for _, zeros := range zeroShares {
				in := wideComplex(rng, 4*n, zeros, 150)
				what := fmt.Sprintf("n=%d zeros=%v", n, zeros)
				// Paired rows a and b = in[:n], in[n:2n] with spectrum
				// rows in[2n:3n], in[3n:]; a self-mirrored row is a alone.
				same(t, what+" paired", in, n,
					func(d []complex128) { mirrorProductGo(d[:n], d[2*n:3*n], d[n:2*n], d[3*n:], false) },
					func(d []complex128) { mirrorProductAVX2(d[:n], d[2*n:3*n], d[n:2*n], d[3*n:], false) })
				same(t, what+" self", in, n,
					func(d []complex128) { mirrorProductGo(d[:n], d[2*n:3*n], d[:n], d[2*n:3*n], true) },
					func(d []complex128) { mirrorProductAVX2(d[:n], d[2*n:3*n], d[:n], d[2*n:3*n], true) })
			}
		}
	})
	t.Run("twiddle", func(t *testing.T) {
		k := kernelFor(64)
		for w := 1; w <= 129; w++ {
			for _, tw := range []complex128{1, complex(1, math.Copysign(0, -1)), k.root[5], k.root[48],
				wideComplex(rng, 1, 0, 150)[0]} {
				for _, zeros := range zeroShares {
					// src is in[1:w+1], dst in[w+3:2w+3], the rest untouched.
					in := wideComplex(rng, 2*w+5, zeros, 150)
					what := fmt.Sprintf("width %d w=%v zeros=%v", w, tw, zeros)
					same(t, what, in, len(in),
						func(d []complex128) { twiddleRowGo(d[w+3:2*w+3], d[1:w+1], tw) },
						func(d []complex128) { twiddleRowAVX2(d[w+3:2*w+3], d[1:w+1], tw) })
				}
			}
		}
	})
	t.Run("narrow table", func(t *testing.T) { harvestTable(t, "AVX2", harvestLinesAVX2) })
	t.Run("harvest", func(t *testing.T) {
		const sentinel = Lane(0x7fc1)
		const outRows = 3
		for _, lanes := range []int{8, 16} {
			for w := 1; w <= 97; w++ {
				pc := w + 3 // scratch columns past the harvest are not read
				scr := make([]*[]complex128, lanes/2)
				for i := range scr {
					s := make([]complex128, outRows*pc)
					for j := range s {
						s[j] = complex(narrowingEdge(rng), narrowingEdge(rng))
					}
					scr[i] = &s
				}
				colStride := lanes + 3           // three untouched lanes a position
				rowStride := (w+2)*colStride + 5 // two untouched positions and a gap a row
				const lead = 4                   // untouched elements before lane 0
				run := func(harvest func([]*[]complex128, int, int, int, []Lane, int, int)) []Lane {
					dst := make([]Lane, lead+outRows*rowStride)
					for i := range dst {
						dst[i] = sentinel
					}
					harvest(scr, pc, outRows, w, dst[lead:], rowStride, colStride)
					return dst
				}
				want, got := run(harvestLinesGo), run(harvestLinesAVX2)
				for i := range want {
					if got[i] != want[i] {
						o := i - lead
						t.Fatalf("%d lanes width %d: element %d (row %d col %d lane %d) = %#04x, Go loop %#04x",
							lanes, w, i, o/rowStride, o%rowStride/colStride, o%rowStride%colStride, got[i], want[i])
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
			run := func(avx2 bool) ([]Lane, []float64) {
				defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
				cpu.AVX2 = avx2
				block := make([]Lane, outRows*shape.plane*k)
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
				if block[i] != goBlock[i] {
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

// narrowingEdge draws a float64 at an edge of either rounding of
// NarrowLane, every sign random: exactly halfway between two adjacent
// float32s or two adjacent lanes (round to even decides), past the
// largest finite lane or math.MaxFloat32 (to ±Inf, or back from just
// below the halfway point), in or below float32's subnormal range, ±0, a
// NaN, or an ordinary value.
func narrowingEdge(rng *rand.Rand) float64 {
	var v float64
	switch rng.IntN(8) {
	case 0:
		f := math.Float32frombits(rng.Uint32N(0x7f7f_ffff))
		v = (float64(f) + float64(math.Nextafter32(f, math.MaxFloat32))) / 2
	case 6:
		// A lane tie, or one float32 either side of it.
		tie := rng.Uint32N(0x7f7f)<<16 | 0x8000
		v = float64(math.Float32frombits(tie + rng.Uint32N(3) - 1))
	case 7:
		v = []float64{math.NaN(), float64(math.Float32frombits(0x7f7f_8000)), float64(math.Float32frombits(0x7f7f_7fff))}[rng.IntN(3)]
	case 1:
		// MaxFloat32 + half its ulp is the tie that rounds to Inf.
		const tie = math.MaxFloat32 + 0x1p103
		v = []float64{tie, math.Nextafter(tie, 0), math.MaxFloat32 * 1.5, 1e300}[rng.IntN(4)]
	case 2:
		v = math.SmallestNonzeroFloat32 * 0x1p24 * rng.Float64()
	case 3:
		v = math.SmallestNonzeroFloat32 * []float64{0.5, 1.5, 2.5, 0.25}[rng.IntN(4)]
	case 4:
		v = 0
	default:
		v = rng.NormFloat64()
	}
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}
