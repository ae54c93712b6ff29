package fft

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
)

// tableSpectra counts forward table spectra computed since process start
// (one per NewPlan2D or NewPlan2DSlab). The pool-construction tests
// assert one per distinct slab: the padded transform size depends only on
// the slab, so every (dyadic size × subpool × matrix) job correlating
// against a slab must share its spectrum.
var tableSpectra atomic.Int64

// TableSpectrumCount returns how many forward table spectra have been
// computed (i.e. how many Plan2D values were constructed).
func TableSpectrumCount() int64 { return tableSpectra.Load() }

// correlations counts planned valid-region correlations (one per kernel
// FFT round trip; a packed pair rides one round trip and counts once).
// The incremental pool-maintenance tests assert appends run a small
// fraction of a full rebuild's correlations.
var correlations atomic.Int64

// CorrelationCount returns how many planned correlations have run since
// process start: one per packed-pair round trip, whether it carries one
// kernel or two, so a CorrelatePairValid-family call counts once and a
// block of n kernels counts ⌈n/2⌉.
func CorrelationCount() int64 { return correlations.Load() }

// Plan2D is the frequency-domain correlation engine behind Theorem 3: it
// computes the padded forward 2D spectrum of one real data table exactly
// once and then correlates that shared spectrum against any number of
// real kernels. What makes a planned correlation cheap:
//
//   - Shared table spectrum. The padded size NextPow2(n)×NextPow2(m)
//     depends only on the table, never on the kernel, so the table-side
//     transform — half the FFT work of a one-shot correlation — is paid
//     once per table instead of once per kernel.
//   - Packed-pair kernel transforms. Kernels are real, so two of them
//     ride one complex FFT as c = a + i·b. No explicit unpacking is ever
//     needed: writing D for the table spectrum and C for the packed
//     spectrum, the pointwise products of both correlations combine into
//     G[w] = D[w]·conj(A[w]) + i·(D[w]·conj(B[w])) = D[w]·C[−w]
//     (by the Hermitian symmetry conj(A[w] − i·B[w]) = C[−w] of
//     real-input spectra), and one inverse transform of G returns
//     correlation a in its real plane and correlation b in its imaginary
//     plane: two kernels cost one forward and one inverse FFT.
//   - Nothing but butterflies in the round trip. The spectrum is kept in
//     the bit-reversed order the kernel's forward produces, the product is
//     taken in that order (−w sits at a mirrored position, see mirror) and
//     the kernel's inverse consumes it, so no permutation pass runs; the
//     1/(pr·pc) of the inverse is folded into the spectrum once, so no
//     scaling pass runs; the forward column pass never reads the zero
//     rows below the kernel and the inverse column pass stops at the last
//     harvested column (forwardColumns, inverseColumns).
//   - A block of lanes is harvested together. CorrelateBlockValidSub runs
//     up to eight round trips into eight scratch matrices and then writes
//     all sixteen lanes of every position at once, one 32-byte run,
//     where lane-pair-at-a-time write-through into a position-major plane
//     set fetches and writes back each line eight times. The harvest is
//     also where a lane leaves float64: the stored element is a Lane, a
//     bfloat16 (NarrowLane).
//
// The spectrum is read-only after construction and scratch is handed out
// by a sync.Pool that dies with the plan, so one Plan2D may be shared by
// any number of goroutines; results are pure functions of (table, kernel),
// independent of scheduling.
type Plan2D struct {
	rows, cols int          // table dims
	pr, pc     int          // padded transform dims (powers of two)
	spec       []complex128 // table spectrum / (pr·pc), bit-reversed order, read-only
	scratch    sync.Pool    // *[]complex128 of pr·pc
}

// NewPlan2D builds the correlation plan for an n×m row-major real table,
// computing its padded forward spectrum (the one table-side FFT every
// correlation through this plan will share).
func NewPlan2D(data []float64, n, m int) *Plan2D {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("fft: NewPlan2D with non-positive dims %dx%d", n, m))
	}
	if len(data) != n*m {
		panic(fmt.Sprintf("fft: NewPlan2D data length %d != %d*%d", len(data), n, m))
	}
	return NewPlan2DSlab(data, n, m, 0, m)
}

// NewPlan2DSlab builds a correlation plan over a vertical column slab of
// an n×fullCols row-major table: the plan's logical table is the
// n×slabCols strip starting at column c0, zero-extended where
// c0+slabCols runs past the table's right edge. Zero extension (rather
// than clipping) keeps the padded transform size a function of slabCols
// alone, so two slabs of equal width over equal contents produce
// bit-identical plans regardless of where the table ends — the property
// the incremental pool-maintenance path's byte-identity rests on.
//
// NewPlan2D is the c0=0, slabCols=fullCols special case.
func NewPlan2DSlab(data []float64, n, fullCols, c0, slabCols int) *Plan2D {
	if n <= 0 || fullCols <= 0 || slabCols <= 0 {
		panic(fmt.Sprintf("fft: NewPlan2DSlab with non-positive dims n=%d fullCols=%d slabCols=%d",
			n, fullCols, slabCols))
	}
	if c0 < 0 || c0 >= fullCols {
		panic(fmt.Sprintf("fft: NewPlan2DSlab slab start %d outside table of %d cols", c0, fullCols))
	}
	if len(data) != n*fullCols {
		panic(fmt.Sprintf("fft: NewPlan2DSlab data length %d != %d*%d", len(data), n, fullCols))
	}
	backed := min(slabCols, fullCols-c0) // columns actually backed by table data
	pr, pc := NextPow2(n), NextPow2(slabCols)
	spec := make([]complex128, pr*pc)
	rowK := kernelFor(pc)
	for r := 0; r < n; r++ {
		row := spec[r*pc : (r+1)*pc]
		for c, v := range data[r*fullCols+c0 : r*fullCols+c0+backed] {
			row[c] = complex(v, 0)
		}
		rowK.forward(row)
	}
	forwardColumns(spec, pr, pc, n)
	// The inverse's 1/(pr·pc), paid here once: a power of two, so every
	// product with the scaled spectrum is the scaled product, exactly.
	scale := complex(1/float64(pr*pc), 0)
	for i := range spec {
		spec[i] *= scale
	}
	tableSpectra.Add(1)
	p := &Plan2D{rows: n, cols: slabCols, pr: pr, pc: pc, spec: spec}
	p.scratch.New = func() any {
		s := make([]complex128, pr*pc)
		return &s
	}
	return p
}

// Dims returns the table dimensions the plan was built for.
func (p *Plan2D) Dims() (rows, cols int) { return p.rows, p.cols }

// PaddedDims returns the power-of-two transform dimensions.
func (p *Plan2D) PaddedDims() (pr, pc int) { return p.pr, p.pc }

// OutDims returns the valid-correlation output dimensions for a ka×kb
// kernel: every position at which the kernel fits inside the table.
func (p *Plan2D) OutDims(ka, kb int) (rows, cols int) {
	return p.rows - ka + 1, p.cols - kb + 1
}

// CorrelatePairValid cross-correlates the plan's table with one or two
// real ka×kb kernels in a single FFT round trip, writing the valid-region
// results through caller-chosen strides:
//
//	dstA[pos*strideA] = Σ data[i+u][j+v]·kernelA[u][v]   pos = i·outCols + j
//	dstB[pos*strideB] = Σ data[i+u][j+v]·kernelB[u][v]   (when kernelB != nil)
//
// Pass stride 1 for a plain contiguous output. kernelB may be nil (odd
// trailing kernel of a packed-pair sweep), in which case dstB is ignored.
//
// Safe for concurrent use; allocates nothing beyond a possible scratch
// grow on first concurrent use.
func (p *Plan2D) CorrelatePairValid(kernelA, kernelB []float64, ka, kb int,
	dstA []float64, strideA int, dstB []float64, strideB int) {
	_, outCols := p.OutDims(ka, kb)
	p.CorrelatePairValidSub(kernelA, kernelB, ka, kb, outCols,
		dstA, outCols*strideA, strideA, dstB, outCols*strideB, strideB)
}

// CorrelatePairValidSub is CorrelatePairValid with a restricted harvest:
// only the first subCols columns of each valid output row are computed to
// the end and written, through independent row and column strides:
//
//	dstA[r*rowStrideA + c*colStrideA] = correlation a at (r, c),  c < subCols
//
// What lands at a harvested position is bit-for-bit what the full
// harvest writes there. CorrelatePairValid is the subCols=outCols
// special case.
//
// When kernelB is nil, dstB is ignored (strides included).
func (p *Plan2D) CorrelatePairValidSub(kernelA, kernelB []float64, ka, kb, subCols int,
	dstA []float64, rowStrideA, colStrideA int,
	dstB []float64, rowStrideB, colStrideB int) {
	outRows := p.checkHarvest(ka, kb, subCols)
	checkKernelLen(kernelA, ka, kb, "A")
	checkSubStride(len(dstA), outRows, subCols, rowStrideA, colStrideA, 1, "A")
	if kernelB != nil {
		checkKernelLen(kernelB, ka, kb, "B")
		checkSubStride(len(dstB), outRows, subCols, rowStrideB, colStrideB, 1, "B")
	} else {
		dstB = nil
	}
	scr := p.scratch.Get().(*[]complex128)
	p.roundTrip(*scr, kernelA, kernelB, ka, kb, subCols)
	harvestPair(*scr, p.pc, outRows, subCols, dstA, rowStrideA, colStrideA, dstB, rowStrideB, colStrideB)
	p.scratch.Put(scr)
}

// BlockLanes is how many adjacent lanes CorrelateBlockValidSub harvests
// together: sixteen Lanes, one 32-byte store run per position — half a
// cache line of a plane set at k = 64.
const BlockLanes = 16

// CorrelateBlockValidSub cross-correlates the plan's table with up to
// BlockLanes real ka×kb kernels, two to a round trip, and harvests them
// together into adjacent lanes of a position-major destination:
//
//	dst[r*rowStride + c*colStride + i] = correlation with kernels[i] at (r, c),  c < subCols
//
// Each lane receives what CorrelatePairValidSub would write for the same
// kernel paired the same way (2i with 2i+1, a trailing odd kernel alone),
// narrowed to a Lane (NarrowLane) — once, here, the only rounding a stored
// lane ever sees. This is the write-through shape of a pool build: lane i
// of a PlaneSet is dst[i:] at column stride k, a block is sixteen adjacent
// lanes, and in panel mode the harvest stops at the panel width while
// the row stride jumps to the panel's next row in the full-width plane.
//
// ctx is polled before each round trip; a cancelled block returns
// ctx.Err() having written nothing. Safe for concurrent use; a block
// holds one pr×pc scratch matrix per round trip until it has harvested:
// eight at a full block, pr·pc·128 bytes (32 MiB at a 256×1024 table).
func (p *Plan2D) CorrelateBlockValidSub(ctx context.Context, kernels [][]float64, ka, kb, subCols int,
	dst []Lane, rowStride, colStride int) error {
	lanes := len(kernels)
	if lanes == 0 || lanes > BlockLanes {
		panic(fmt.Sprintf("fft: block of %d kernels, want 1..%d", lanes, BlockLanes))
	}
	outRows := p.checkHarvest(ka, kb, subCols)
	for _, kern := range kernels {
		checkKernelLen(kern, ka, kb, "of block")
	}
	if colStride < lanes {
		panic(fmt.Sprintf("fft: column stride %d narrower than the block's %d lanes", colStride, lanes))
	}
	checkSubStride(len(dst), outRows, subCols, rowStride, colStride, lanes, "block")

	var scr [BlockLanes / 2]*[]complex128
	defer func() {
		for _, s := range scr {
			if s != nil {
				p.scratch.Put(s)
			}
		}
	}()
	pairs := (lanes + 1) / 2
	for pi := 0; pi < pairs; pi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var kernB []float64
		if 2*pi+1 < lanes {
			kernB = kernels[2*pi+1]
		}
		scr[pi] = p.scratch.Get().(*[]complex128)
		p.roundTrip(*scr[pi], kernels[2*pi], kernB, ka, kb, subCols)
	}
	if lanes == BlockLanes {
		harvestLines(scr[:], p.pc, outRows, subCols, dst, rowStride, colStride)
		return nil
	}
	for pi := 0; pi < pairs; pi++ {
		var dstB []Lane
		if 2*pi+1 < lanes {
			dstB = dst[2*pi+1:]
		}
		harvestPair(*scr[pi], p.pc, outRows, subCols, dst[2*pi:], rowStride, colStride, dstB, rowStride, colStride)
	}
	return nil
}

// roundTrip runs one packed-pair correlation in scr (pr·pc elements,
// prior contents irrelevant): on return, element (r, c) of scr holds
// correlation a in its real part and correlation b in its imaginary
// part, for every row and for c < subCols. Columns from subCols on hold
// a half-finished inverse. The bits of a finished column do not depend
// on subCols.
func (p *Plan2D) roundTrip(scr []complex128, kernelA, kernelB []float64, ka, kb, subCols int) {
	correlations.Add(1)
	pr, pc := p.pr, p.pc
	rowK := kernelFor(pc)
	// Pack the pair as one complex kernel c = a + i·b into rows [0, ka),
	// the only rows forwardColumns reads.
	for r := 0; r < ka; r++ {
		row := scr[r*pc : (r+1)*pc]
		ra := kernelA[r*kb : (r+1)*kb]
		if kernelB == nil {
			for c, v := range ra {
				row[c] = complex(v, 0)
			}
		} else {
			rb := kernelB[r*kb : (r+1)*kb]
			for c, v := range ra {
				row[c] = complex(v, rb[c])
			}
		}
		clear(row[kb:])
		rowK.forward(row)
	}
	forwardColumns(scr, pr, pc, ka)

	// G[w] = D[w]·C[−w], the combined correlation spectrum of both
	// kernels (see the type comment), in place: rows r and mirror(r) trade
	// elements, so they are multiplied together and — being complete —
	// inverse-transformed while still in cache. Rows first, columns after:
	// the column pass can then stop at subCols.
	for r := 0; r < pr; r++ {
		nr := mirror(r)
		if nr < r {
			continue
		}
		a, b := scr[r*pc:(r+1)*pc], scr[nr*pc:(nr+1)*pc]
		mirrorProduct(a, p.spec[r*pc:(r+1)*pc], b, p.spec[nr*pc:(nr+1)*pc], nr == r)
		rowK.inverse(a)
		if nr != r {
			rowK.inverse(b)
		}
	}
	inverseColumns(scr, pr, pc, subCols)
}

// mirror maps the position of frequency w in a bit-reversed spectrum to
// the position of −w. Negating w keeps its lowest set bit and flips every
// bit above it; bit-reversed, that flips every bit below the highest set
// bit of the position — a reflection of each octave [2^p, 2^(p+1)) onto
// itself, whatever the transform length. Positions 0 and 1 (w = 0 and
// w = n/2) are their own mirrors.
func mirror(i int) int { return i ^ (1<<bits.Len(uint(i)>>1) - 1) }

// mirrorProduct replaces a[c] with sa[c]·b[mirror(c)] and b[mirror(c)]
// with sb[mirror(c)]·a[c] for every c, octave by octave so that both
// walks are sequential. When a and b are one self-mirrored row (self),
// only the lower half of each octave is visited, which covers every pair
// once.
func mirrorProduct(a, sa, b, sb []complex128, self bool) {
	if cpu.AVX2 {
		mirrorProductAVX2(a, sa, b, sb, self)
		return
	}
	mirrorProductGo(a, sa, b, sb, self)
}

// mirrorProductGo is the Go encoding of mirrorProduct.
func mirrorProductGo(a, sa, b, sb []complex128, self bool) {
	for lo := 0; lo < len(a); lo = max(2*lo, 1) {
		hi := max(2*lo, 1)
		end := hi
		if self {
			end = (lo + hi + 1) / 2
		}
		for c, nc := lo, hi-1; c < end; c, nc = c+1, nc-1 {
			x, y := a[c], b[nc]
			a[c] = sa[c] * y
			b[nc] = sb[nc] * x
		}
	}
}

// harvestPair writes the valid region of one round trip through the
// caller's strides: correlation a is the real plane, correlation b (when
// dstB != nil) the imaginary plane. T is float64 for the pair entry
// points and Lane for a short block's lanes.
func harvestPair[T float64 | Lane](scr []complex128, pc, outRows, subCols int,
	dstA []T, rowStrideA, colStrideA int,
	dstB []T, rowStrideB, colStrideB int) {
	for r := 0; r < outRows; r++ {
		row := scr[r*pc : r*pc+subCols]
		baseA := r * rowStrideA
		for c, v := range row {
			dstA[baseA+c*colStrideA] = store[T](real(v))
		}
		if dstB != nil {
			baseB := r * rowStrideB
			for c, v := range row {
				dstB[baseB+c*colStrideB] = store[T](imag(v))
			}
		}
	}
}

// store is v as a harvest writes it: itself into a float64 plane,
// NarrowLane(v) into a lane.
func store[T float64 | Lane](v float64) T {
	if _, lane := any(T(0)).(Lane); lane {
		return T(NarrowLane(v))
	}
	return T(v)
}

// harvestLines writes the valid region of the round trips of a full
// block, narrowed to Lanes: the 2·len(scr) lanes of a position are
// adjacent (lane 2i the real and 2i+1 the imaginary part of scratch i),
// so each position is one store run, visited once. len(scr) is a
// multiple of four.
func harvestLines(scr []*[]complex128, pc, outRows, subCols int,
	dst []Lane, rowStride, colStride int) {
	if cpu.AVX2 {
		harvestLinesAVX2(scr, pc, outRows, subCols, dst, rowStride, colStride)
		return
	}
	harvestLinesGo(scr, pc, outRows, subCols, dst, rowStride, colStride)
}

// harvestLinesGo is the Go encoding of harvestLines.
func harvestLinesGo(scr []*[]complex128, pc, outRows, subCols int,
	dst []Lane, rowStride, colStride int) {
	lanes := 2 * len(scr)
	for r := 0; r < outRows; r++ {
		base := r * rowStride
		for c := 0; c < subCols; c++ {
			line := dst[base+c*colStride:][:lanes]
			for i, s := range scr {
				v := (*s)[r*pc+c]
				line[2*i], line[2*i+1] = NarrowLane(real(v)), NarrowLane(imag(v))
			}
		}
	}
}

// CorrelateValid is the single-kernel convenience wrapper around
// CorrelatePairValid, returning a freshly allocated contiguous plane.
func (p *Plan2D) CorrelateValid(kernel []float64, ka, kb int) []float64 {
	outRows, outCols := p.OutDims(ka, kb)
	out := make([]float64, outRows*outCols)
	p.CorrelatePairValid(kernel, nil, ka, kb, out, 1, nil, 0)
	return out
}

// checkHarvest validates a kernel shape and harvest width against the
// plan and returns the number of valid output rows.
func (p *Plan2D) checkHarvest(ka, kb, subCols int) (outRows int) {
	if ka <= 0 || kb <= 0 {
		panic(fmt.Sprintf("fft: non-positive kernel dims %dx%d", ka, kb))
	}
	if ka > p.rows || kb > p.cols {
		panic(fmt.Sprintf("fft: kernel %dx%d exceeds table %dx%d", ka, kb, p.rows, p.cols))
	}
	outRows, outCols := p.OutDims(ka, kb)
	if subCols <= 0 || subCols > outCols {
		panic(fmt.Sprintf("fft: harvest width %d outside valid output width %d", subCols, outCols))
	}
	return outRows
}

func checkKernelLen(kernel []float64, ka, kb int, which string) {
	if len(kernel) != ka*kb {
		panic(fmt.Sprintf("fft: kernel %s length %d != %d*%d", which, len(kernel), ka, kb))
	}
}

// checkSubStride panics unless a destination of the given length holds
// lanes adjacent elements at every harvested position.
func checkSubStride(length, outRows, subCols, rowStride, colStride, lanes int, which string) {
	if rowStride <= 0 || colStride <= 0 {
		panic(fmt.Sprintf("fft: non-positive strides (%d,%d) for output %s",
			rowStride, colStride, which))
	}
	if length < (outRows-1)*rowStride+(subCols-1)*colStride+lanes {
		panic(fmt.Sprintf("fft: output %s length %d too short for %dx%d positions of %d lanes at strides (%d,%d)",
			which, length, outRows, subCols, lanes, rowStride, colStride))
	}
}
