package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// The transform kernel: radix-4 butterflies (two radix-2 stages fused
// into one pass over the data, three twiddle products per four points)
// in two flavours that never need a bit-reversal pass between them.
//
//   - forward is decimation in frequency: natural-order input, output in
//     bit-reversed order.
//   - inverse is decimation in time: bit-reversed input, natural-order
//     output, conjugate twiddles, no scaling.
//
// A frequency-domain product taken in bit-reversed order between the two
// (Plan2D) therefore pays for butterflies only. Each flavour exists as a
// vector body (one contiguous transform; the inner loop walks the
// twiddle table) and a column body (the same transform down the rows of
// a row-major matrix, every column at once; the inner loop walks a
// contiguous run of columns with the twiddles held in registers). All
// four read the same per-stage tables, and a column sees exactly the
// arithmetic of a vector transform of its length except where a twiddle
// is known to be 1 and its multiply is skipped.
//
// Each body has two encodings of one arithmetic: the Go loops below
// (one complex128 an instruction), which are the reference and the only
// path off amd64, and AVX2 assembly (kernel_amd64.s, two complex128 a
// register), chosen once at start-up when the CPU and the OS support it
// (useAVX2). The assembly performs the Go body's operations in the Go
// body's order, without fused multiply-adds, so every output is the same
// bits whichever encoding ran (TestAVX2BodiesMatchGo).
//
// A transform of length n runs radix-4 stages of span n, n/4, … down to
// 8, then a twiddle-free tail: one radix-4 pass of span 4 when log₂ n is
// even, one radix-2 pass of span 2 when it is odd.

// kernel holds the twiddle tables of one transform length.
type kernel struct {
	n int
	// root[t] = exp(−2πi·t/n) for t < n.
	root []complex128
	// tw[s] serves the radix-4 stage of span L = n>>(2s), L ≥ 8: with
	// q = L/4 and w = exp(−2πi/L), three contiguous planes w^j, w^2j and
	// w^3j, j < q, so tw[s][j], tw[s][q+j] and tw[s][2q+j].
	tw [][]complex128
}

// kernels caches one kernel per transform length.
var kernels sync.Map // int -> *kernel

// kernelFor returns the kernel of length n, which must be a power of two
// (panic otherwise — the caller owns padding decisions).
func kernelFor(n int) *kernel {
	if k, ok := kernels.Load(n); ok {
		return k.(*kernel)
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	k := &kernel{n: n, root: make([]complex128, n)}
	for t := range k.root {
		ang := -2 * math.Pi * float64(t) / float64(n)
		k.root[t] = complex(math.Cos(ang), math.Sin(ang))
	}
	for span := n; span >= 8; span >>= 2 {
		q, step := span/4, n/span
		tw := make([]complex128, 3*q)
		for j := 0; j < q; j++ {
			tw[j] = k.root[j*step]
			tw[q+j] = k.root[2*j*step]
			tw[2*q+j] = k.root[3*j*step]
		}
		k.tw = append(k.tw, tw)
	}
	actual, _ := kernels.LoadOrStore(n, k)
	return actual.(*kernel)
}

// tailSpan is the span of the twiddle-free tail: 4, 2, or 1 (none).
func (k *kernel) tailSpan() int { return k.n >> (2 * len(k.tw)) }

// mulConj returns x·conj(w).
func mulConj(x, w complex128) complex128 {
	return complex(real(x)*real(w)+imag(x)*imag(w), imag(x)*real(w)-real(x)*imag(w))
}

// forward transforms data (length k.n) in place: natural-order input,
// bit-reversed output.
func (k *kernel) forward(data []complex128) {
	if useAVX2 {
		k.forwardAVX2(data)
		return
	}
	k.forwardGo(data)
}

// inverse is the unscaled inverse of forward: bit-reversed input,
// natural-order output, n times the true inverse.
func (k *kernel) inverse(data []complex128) {
	if useAVX2 {
		k.inverseAVX2(data)
		return
	}
	k.inverseGo(data)
}

// forwardCols is forward applied down rows [r0, r0+k.n) of a row-major
// matrix with the given row stride, to columns [c0, c1) at once.
func (k *kernel) forwardCols(data []complex128, stride, r0, c0, c1 int) {
	if useAVX2 {
		k.forwardColsAVX2(data, stride, r0, c0, c1)
		return
	}
	k.forwardColsGo(data, stride, r0, c0, c1)
}

// inverseCols is inverse applied down rows [0, k.n) of a row-major
// matrix, to columns [c0, c1) at once.
func (k *kernel) inverseCols(data []complex128, stride, c0, c1 int) {
	if useAVX2 {
		k.inverseColsAVX2(data, stride, c0, c1)
		return
	}
	k.inverseColsGo(data, stride, c0, c1)
}

// stage returns the span, quarter span and twiddle planes of stage s.
func (k *kernel) stage(s int) (span, q int, w1, w2, w3 []complex128) {
	span = k.n >> (2 * s)
	q = span / 4
	tw := k.tw[s]
	return span, q, tw[:q:q], tw[q : 2*q : 2*q], tw[2*q : 3*q : 3*q]
}

// forwardGo is the Go encoding of forward.
func (k *kernel) forwardGo(data []complex128) {
	n := k.n
	data = data[:n:n]
	for s := range k.tw {
		span, q, w1, w2, w3 := k.stage(s)
		for o := 0; o < n; o += span {
			d0 := data[o : o+q : o+q]
			d1 := data[o+q : o+2*q : o+2*q]
			d2 := data[o+2*q : o+3*q : o+3*q]
			d3 := data[o+3*q : o+4*q : o+4*q]
			for j := range d0 {
				x0, x1, x2, x3 := d0[j], d1[j], d2[j], d3[j]
				a, b := x0+x2, x0-x2
				c, t := x1+x3, x1-x3
				d := complex(imag(t), -real(t)) // −i·t
				d0[j] = a + c
				d1[j] = (a - c) * w2[j]
				d2[j] = (b + d) * w1[j]
				d3[j] = (b - d) * w3[j]
			}
		}
	}
	switch k.tailSpan() {
	case 4:
		for o := 0; o+4 <= n; o += 4 {
			g := data[o : o+4 : o+4]
			x0, x1, x2, x3 := g[0], g[1], g[2], g[3]
			a, b := x0+x2, x0-x2
			c, t := x1+x3, x1-x3
			d := complex(imag(t), -real(t))
			g[0], g[1], g[2], g[3] = a+c, a-c, b+d, b-d
		}
	case 2:
		tail2(data)
	}
}

// inverseGo is the Go encoding of inverse.
func (k *kernel) inverseGo(data []complex128) {
	n := k.n
	data = data[:n:n]
	switch k.tailSpan() {
	case 4:
		for o := 0; o+4 <= n; o += 4 {
			g := data[o : o+4 : o+4]
			y0, y1, y2, y3 := g[0], g[1], g[2], g[3]
			a, c := y0+y1, y0-y1
			b, t := y2+y3, y2-y3
			e := complex(-imag(t), real(t)) // +i·t
			g[0], g[1], g[2], g[3] = a+b, c+e, a-b, c-e
		}
	case 2:
		tail2(data)
	}
	for s := len(k.tw) - 1; s >= 0; s-- {
		span, q, w1, w2, w3 := k.stage(s)
		for o := 0; o < n; o += span {
			d0 := data[o : o+q : o+q]
			d1 := data[o+q : o+2*q : o+2*q]
			d2 := data[o+2*q : o+3*q : o+3*q]
			d3 := data[o+3*q : o+4*q : o+4*q]
			for j := range d0 {
				y0 := d0[j]
				y1 := mulConj(d1[j], w2[j])
				y2 := mulConj(d2[j], w1[j])
				y3 := mulConj(d3[j], w3[j])
				a, c := y0+y1, y0-y1
				b, t := y2+y3, y2-y3
				e := complex(-imag(t), real(t))
				d0[j] = a + b
				d1[j] = c + e
				d2[j] = a - b
				d3[j] = c - e
			}
		}
	}
}

// tail2 is the span-2 pass, the same in both directions.
func tail2(data []complex128) {
	for o := 0; o+2 <= len(data); o += 2 {
		x, y := data[o], data[o+1]
		data[o], data[o+1] = x+y, x-y
	}
}

// forwardColsGo is the Go encoding of forwardCols.
func (k *kernel) forwardColsGo(data []complex128, stride, r0, c0, c1 int) {
	n, w := k.n, c1-c0
	row := func(r int) []complex128 {
		o := (r0+r)*stride + c0
		return data[o : o+w : o+w]
	}
	for s := range k.tw {
		span, q, tw1, tw2, tw3 := k.stage(s)
		for o := 0; o < n; o += span {
			forward4(row(o), row(o+q), row(o+2*q), row(o+3*q))
			for j := 1; j < q; j++ {
				w1, w2, w3 := tw1[j], tw2[j], tw3[j]
				d0, d1, d2, d3 := row(o+j), row(o+j+q), row(o+j+2*q), row(o+j+3*q)
				d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
				for x := range d0 {
					x0, x1, x2, x3 := d0[x], d1[x], d2[x], d3[x]
					a, b := x0+x2, x0-x2
					c, t := x1+x3, x1-x3
					d := complex(imag(t), -real(t))
					d0[x] = a + c
					d1[x] = (a - c) * w2
					d2[x] = (b + d) * w1
					d3[x] = (b - d) * w3
				}
			}
		}
	}
	switch k.tailSpan() {
	case 4:
		for o := 0; o < n; o += 4 {
			forward4(row(o), row(o+1), row(o+2), row(o+3))
		}
	case 2:
		for o := 0; o < n; o += 2 {
			cols2(row(o), row(o+1))
		}
	}
}

// inverseColsGo is the Go encoding of inverseCols.
func (k *kernel) inverseColsGo(data []complex128, stride, c0, c1 int) {
	n, w := k.n, c1-c0
	row := func(r int) []complex128 {
		o := r*stride + c0
		return data[o : o+w : o+w]
	}
	switch k.tailSpan() {
	case 4:
		for o := 0; o < n; o += 4 {
			inverse4(row(o), row(o+1), row(o+2), row(o+3))
		}
	case 2:
		for o := 0; o < n; o += 2 {
			cols2(row(o), row(o+1))
		}
	}
	for s := len(k.tw) - 1; s >= 0; s-- {
		span, q, tw1, tw2, tw3 := k.stage(s)
		for o := 0; o < n; o += span {
			inverse4(row(o), row(o+q), row(o+2*q), row(o+3*q))
			for j := 1; j < q; j++ {
				w1, w2, w3 := tw1[j], tw2[j], tw3[j]
				d0, d1, d2, d3 := row(o+j), row(o+j+q), row(o+j+2*q), row(o+j+3*q)
				d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
				for x := range d0 {
					y0 := d0[x]
					y1 := mulConj(d1[x], w2)
					y2 := mulConj(d2[x], w1)
					y3 := mulConj(d3[x], w3)
					a, c := y0+y1, y0-y1
					b, t := y2+y3, y2-y3
					e := complex(-imag(t), real(t))
					d0[x] = a + b
					d1[x] = c + e
					d2[x] = a - b
					d3[x] = c - e
				}
			}
		}
	}
}

// forward4 is the forward radix-4 butterfly across four rows whose
// twiddles are all 1.
func forward4(d0, d1, d2, d3 []complex128) {
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	for x := range d0 {
		x0, x1, x2, x3 := d0[x], d1[x], d2[x], d3[x]
		a, b := x0+x2, x0-x2
		c, t := x1+x3, x1-x3
		d := complex(imag(t), -real(t))
		d0[x], d1[x], d2[x], d3[x] = a+c, a-c, b+d, b-d
	}
}

// inverse4 is the inverse radix-4 butterfly across four rows whose
// twiddles are all 1.
func inverse4(d0, d1, d2, d3 []complex128) {
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	for x := range d0 {
		y0, y1, y2, y3 := d0[x], d1[x], d2[x], d3[x]
		a, c := y0+y1, y0-y1
		b, t := y2+y3, y2-y3
		e := complex(-imag(t), real(t))
		d0[x], d1[x], d2[x], d3[x] = a+b, c+e, a-b, c-e
	}
}

// cols2 is the span-2 butterfly across two rows.
func cols2(d0, d1 []complex128) {
	d1 = d1[:len(d0)]
	for x := range d0 {
		a, b := d0[x], d1[x]
		d0[x], d1[x] = a+b, a-b
	}
}

// colBlockElems bounds the working set of a column pass: it runs over
// groups of columns narrow enough that rows × group complex128s stay in
// L2 across every stage (2^15 elements = 512 KiB).
const colBlockElems = 1 << 15

func colBlock(rows int) int { return max(colBlockElems/rows, 4) }

// forwardColumns runs the column-dimension forward transform of a pr×pc
// row-major matrix of which only rows [0, nz) hold input: every other
// row is taken as zero whatever it contains, and is overwritten. The
// zero rows are never fed to a butterfly. With lb = NextPow2(nz), the
// first log₂(pr/lb) radix-2 stages of a decimation in frequency combine
// each input row with zeros only, so together they amount to pr/lb
// copies of the input, copy b twiddled by w^(j·rev(b)) at row j (rev
// over log₂(pr/lb) bits) — one multiply per element, computed here from
// the root table, in place of those stages. Each copy then runs the
// length-lb transform.
func forwardColumns(data []complex128, pr, pc, nz int) {
	lb := NextPow2(nz)
	copies := pr / lb
	shift := 64 - uint(bits.TrailingZeros(uint(copies)))
	root, sub := kernelFor(pr).root, kernelFor(lb)
	block := colBlock(pr)
	for c0 := 0; c0 < pc; c0 += block {
		c1 := min(c0+block, pc)
		// Copy 0 is the input itself, so it is transformed last.
		for b := copies - 1; b >= 0; b-- {
			m := int(bits.Reverse64(uint64(b)) >> shift)
			for j := 0; j < lb; j++ {
				dst := data[(b*lb+j)*pc+c0 : (b*lb+j)*pc+c1]
				switch {
				case j >= nz:
					clear(dst)
				case b > 0:
					w := root[j*m]
					src := data[j*pc+c0 : j*pc+c1]
					for x, v := range src {
						dst[x] = v * w
					}
				}
			}
			sub.forwardCols(data, pc, b*lb, c0, c1)
		}
	}
}

// inverseColumns runs the column-dimension inverse transform of a pr×pc
// row-major matrix over columns [0, cols) only. Columns never mix, so
// each transformed column is bit-identical to what the full-width pass
// would leave there.
func inverseColumns(data []complex128, pr, pc, cols int) {
	k, block := kernelFor(pr), colBlock(pr)
	for c0 := 0; c0 < cols; c0 += block {
		k.inverseCols(data, pc, c0, min(c0+block, cols))
	}
}
