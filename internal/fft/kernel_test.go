package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// gatherCol copies column c of a row-major matrix of the given width.
func gatherCol(data []complex128, rows, width, c int) []complex128 {
	col := make([]complex128, rows)
	for r := range col {
		col[r] = data[r*width+c]
	}
	return col
}

// The column bodies must give every column the vector body's transform
// of it (equal under ==; a skipped multiply by 1 can only change the
// sign of a zero), touch no column outside [c0, c1) and no row outside
// [r0, r0+n).
func TestColumnKernelMatchesVectorKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 61))
	const width, c0, c1, r0 = 7, 2, 6, 3
	for n := 1; n <= 512; n <<= 1 {
		k := kernelFor(n)
		for _, dir := range []string{"forward", "inverse"} {
			rows := n
			if dir == "forward" {
				rows += r0 + 1 // forwardCols takes a row offset; pad above and below
			}
			orig := randComplex(rng, rows*width)
			got := append([]complex128(nil), orig...)
			top := 0
			if dir == "forward" {
				top = r0
				k.forwardCols(got, width, r0, c0, c1)
			} else {
				k.inverseCols(got, width, c0, c1)
			}
			for c := 0; c < width; c++ {
				want := gatherCol(orig, rows, width, c)
				if c >= c0 && c < c1 {
					if dir == "forward" {
						k.forward(want[top : top+n])
					} else {
						k.inverse(want)
					}
				}
				for r, w := range want {
					if got[r*width+c] != w {
						t.Fatalf("n=%d %s: (%d,%d) = %v, vector kernel %v", n, dir, r, c, got[r*width+c], w)
					}
				}
			}
		}
	}
}

// forwardColumns must treat every row from nz on as zero whatever it
// holds (NaN here, so a single read of one poisons the output) and agree
// with the unpruned pass over an explicitly zero-filled matrix.
func TestForwardColumnsIgnoresRowsBelowInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 62))
	const pc = 5
	for _, pr := range []int{1, 2, 4, 8, 32, 128} {
		for _, nz := range []int{1, 2, 3, 5, pr / 2, pr/2 + 1, pr - 1, pr} {
			if nz < 1 || nz > pr {
				continue
			}
			want := make([]complex128, pr*pc)
			copy(want, randComplex(rng, nz*pc))
			got := append([]complex128(nil), want...)
			for i := nz * pc; i < len(got); i++ {
				got[i] = cmplx.NaN()
			}
			forwardColumns(want, pr, pc, pr)
			forwardColumns(got, pr, pc, nz)
			tol := 1e-12 * maxAbs(want)
			for i := range got {
				if !(cmplx.Abs(got[i]-want[i]) <= tol) {
					t.Fatalf("pr=%d nz=%d: element %d = %v, unpruned %v", pr, nz, i, got[i], want[i])
				}
			}
		}
	}
}

// The inverse column pass pruned to the harvested columns must leave in
// them exactly the bits of the full pass, and leave every other column
// as it found it.
func TestInverseColumnsPrunedMatchesFullBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 63))
	for _, shape := range [][2]int{{1, 8}, {2, 4}, {8, 1}, {16, 40}, {128, 64}, {256, 72}} {
		pr, pc := shape[0], shape[1]
		orig := randComplex(rng, pr*pc)
		full := append([]complex128(nil), orig...)
		inverseColumns(full, pr, pc, pc)
		for _, cols := range []int{1, 2, pc / 2, pc - 1, pc} {
			if cols < 1 || cols > pc {
				continue
			}
			got := append([]complex128(nil), orig...)
			inverseColumns(got, pr, pc, cols)
			for i := range got {
				want := full[i]
				if i%pc >= cols {
					want = orig[i]
				}
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want)) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want)) {
					t.Fatalf("%dx%d pruned to %d: (%d,%d) = %v, want %v", pr, pc, cols, i/pc, i%pc, got[i], want)
				}
			}
		}
	}
}

// mirror must be negation of the frequency, seen through the bit-reversed
// order the kernel's forward leaves a spectrum in, at any length.
func TestMirrorNegatesBitReversedFrequency(t *testing.T) {
	for n := 1; n <= 256; n <<= 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		rev := func(i int) int { return int(bits.Reverse64(uint64(i)) >> shift) }
		for i := 0; i < n; i++ {
			if got, want := rev(mirror(i)), (n-rev(i))%n; got != want {
				t.Fatalf("n=%d: position %d (frequency %d) mirrors to frequency %d, want %d", n, i, rev(i), got, want)
			}
		}
	}
}
