package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fft"
	"repro/internal/parallel"
	"repro/internal/table"
)

// PlaneSet holds, for one Sketcher (one tile size, one set of k random
// matrices), the sketch entries for every position at which the tile fits
// inside a table: entry i at position (r, c) is the dot product of random
// matrix i with the tile whose top-left corner is (r, c). This is the
// precomputed pool of Theorem 3 from which any aligned sketch is read in
// O(k) time.
//
// Storage is position-major (the k entries of one position are adjacent),
// so reading a sketch is a single contiguous read rather than k strided
// reads across k correlation planes — reading sketches is the hot path of
// every precomputed-distance query.
//
// A stored entry — a lane — is an fft.Lane, a bfloat16: the float64
// correlation value rounded once, where the FFT harvest stores it (fft's
// CorrelateBlockValidSub, fft.NarrowLane), and widened exactly on every
// read. A sketch estimate is good to ε of tenths and a bfloat16 carries
// 2⁻⁸, so the two bytes a lane keeps of a float32 halve the pool, its
// segment files and their mappings again. Everything upstream of the
// store (spectra, random matrices) and everything downstream of a read
// (sketch vectors, the estimator, the wire) stays float64.
type PlaneSet struct {
	sk         *Sketcher
	rows, cols int // valid positions: tableRows-a+1 × tableCols-b+1

	// bands partitions the anchor columns [0, cols) into one or more
	// contiguous bands, each stored row-major WITHIN the band: band entry
	// (r, c, i) lives at band.data[r*stride+(c-c0)*k+i]. Sealed bands
	// view externally owned memory (a segment file mapping); the final
	// band is the heap-resident fringe, the only one ever written. A plane
	// set nothing has sealed is that single heap band over [0, cols), i.e.
	// data[(r*cols+c)*k+i].
	bands []laneBand
}

// laneBand is one contiguous column band of a plane set: anchor columns
// [c0, c1), stored row-major at stride floats a row, data[0] being lane
// 0 of position (0, c0). A heap band is dense (stride = (c1−c0)·k); a
// sealed band views a segment blob, whose row is one float group per
// table column of the segment — wider than the band where the blob's
// leading entries belong to tiles that start before the table (see
// sealedLane). ext marks data as externally owned (typically a
// read-only memory mapping): it must never be written and is not counted
// as heap memory.
type laneBand struct {
	c0, c1 int
	data   []fft.Lane
	stride int
	ext    bool
}

// LaneBytes is the size of one stored lane, the element of laneBand.data
// and of a segment blob: every byte count of lanes — heap, mapped, on
// disk — is a lane count times this.
const LaneBytes = 2

// heapBand allocates the dense heap band over anchor columns [c0, c1) of
// a plane with the given anchor rows.
func heapBand(c0, c1, rows, k int) laneBand {
	return laneBand{c0: c0, c1: c1, stride: (c1 - c0) * k, data: make([]fft.Lane, rows*(c1-c0)*k)}
}

// locate returns the backing slice and element offset of position (r, c).
// The first band answers with one compare, which is every read of a pool
// nothing has sealed; past it, a binary search over the band ends, since
// a long window keeps one sealed band per live segment.
func (ps *PlaneSet) locate(r, c int) ([]fft.Lane, int) {
	k := ps.sk.k
	if b := &ps.bands[0]; c < b.c1 {
		return b.data, r*b.stride + (c-b.c0)*k
	}
	lo, hi := 1, len(ps.bands)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c < ps.bands[m].c1 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < len(ps.bands) {
		b := &ps.bands[lo]
		return b.data, r*b.stride + (c-b.c0)*k
	}
	panic(fmt.Sprintf("core: anchor column %d beyond plane set (%d bands, cols %d)",
		c, len(ps.bands), ps.cols))
}

// AllPositions computes the PlaneSet of s over t using planned FFT
// cross-correlation (Theorem 3, O(k·N·log N) total): the one panel of a
// pool size built without PanelCols, through the same build loop
// (correlatePanels) over the table's own plan, fanned out over the
// sketcher's workers (SetWorkers). The plane set is byte-identical at any
// worker count.
func (s *Sketcher) AllPositions(t *table.Table) *PlaneSet {
	ps, err := s.AllPositionsCtx(context.Background(), t)
	if err != nil {
		// Background never cancels; only a recovered worker panic lands
		// here, and the no-error API re-raises it on the caller.
		panic(err)
	}
	return ps
}

// AllPositionsCtx is AllPositions with cooperative cancellation: workers
// check ctx between correlation pairs, a cancelled run returns ctx.Err()
// with no plane set published, and a worker panic comes back as a
// *parallel.PanicError instead of crashing the process. A run that
// completes is byte-identical to AllPositions at any worker count.
func (s *Sketcher) AllPositionsCtx(ctx context.Context, t *table.Table) (*PlaneSet, error) {
	ps := s.newPlaneSet(t)
	panel := []panelPlan{{fft.NewPlan2D(t.Data(), t.Rows(), t.Cols()), 0, ps.cols}}
	if err := ps.correlatePanels(ctx, panel, s.workers); err != nil {
		return nil, err
	}
	return ps, nil
}

// panelPlan is one panel of a build: the plan of its slab, which starts
// at table column a0, and its anchor columns [a0, a1).
type panelPlan struct {
	plan   *fft.Plan2D
	a0, a1 int
}

// correlatePanels computes every lane of the given panels of the plane
// set's heap fringe, block-major. The k correlations ride the packed-pair
// engine — random matrices (2i, 2i+1) share one complex FFT round trip —
// and fan out over workers by block of fft.BlockLanes adjacent lanes;
// each block runs through the panels in order. Over several panels a
// block holds its kernel spectra in an fft.KernelBlock, so each pair is
// transformed once per padded size rather than once per panel (8 spectra
// in flight a block, returned to the shared scratch when the block is
// done); a single panel transforms in its round trips' own scratch.
// Block b writes only lanes [16b, 16b+16) of every position (harvested
// together, one 32-byte store run per position, no intermediate plane
// copy), so the plane set is byte-identical at any worker count. Every
// build comes through here: each block polls ctx before every round trip
// and stops with ctx.Err().
func (ps *PlaneSet) correlatePanels(ctx context.Context, panels []panelPlan, workers int) error {
	s := ps.sk
	errs := make([]error, (s.k+fft.BlockLanes-1)/fft.BlockLanes)
	if err := parallel.ForCtx(ctx, workers, len(errs), func(bi int) {
		lo := bi * fft.BlockLanes
		hi := min(lo+fft.BlockLanes, s.k)
		var blk *fft.KernelBlock
		if len(panels) > 1 {
			blk = fft.NewKernelBlock(s.mats[lo:hi], s.rows, s.cols)
			defer blk.Release()
		}
		for _, pn := range panels {
			dst, rowStride := ps.panelDst(pn.a0)
			if blk != nil {
				errs[bi] = pn.plan.CorrelateKernelBlock(ctx, blk, pn.a1-pn.a0, dst[lo:], rowStride, s.k)
			} else {
				errs[bi] = pn.plan.CorrelateBlockValidSub(ctx, s.mats[lo:hi], s.rows, s.cols, pn.a1-pn.a0, dst[lo:], rowStride, s.k)
			}
			if errs[bi] != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// AllPositionsNaive is the O(k·N·M) direct-computation baseline, kept for
// verification and for the Theorem 3 crossover benchmark. Its lanes are
// the direct dot products, narrowed by fft.NarrowLane like the FFT
// build's.
func (s *Sketcher) AllPositionsNaive(t *table.Table) *PlaneSet {
	ps := s.newPlaneSet(t)
	data := ps.bands[0].data
	parallel.For(s.workers, s.k, func(i int) {
		plane := fft.CrossCorrelateValidNaive(
			t.Data(), t.Rows(), t.Cols(), s.mats[i], s.rows, s.cols)
		// Transpose into position-major storage; lane i is touched by
		// this iteration only.
		for pos, v := range plane {
			data[pos*s.k+i] = fft.NarrowLane(v)
		}
	})
	return ps
}

func (s *Sketcher) newPlaneSet(t *table.Table) *PlaneSet {
	if s.rows > t.Rows() || s.cols > t.Cols() {
		panic(fmt.Sprintf("core: tile %dx%d larger than table %dx%d",
			s.rows, s.cols, t.Rows(), t.Cols()))
	}
	ps := &PlaneSet{
		sk:   s,
		rows: t.Rows() - s.rows + 1,
		cols: t.Cols() - s.cols + 1,
	}
	ps.bands = []laneBand{heapBand(0, ps.cols, ps.rows, s.k)}
	return ps
}

// Sketcher returns the sketcher whose matrices produced this plane set.
func (ps *PlaneSet) Sketcher() *Sketcher { return ps.sk }

// lanes returns the k lanes of the position (r, c), a view of the band
// that holds it (never to be written): the one bounds check and the one
// locate every read of a position goes through.
func (ps *PlaneSet) lanes(r, c int) []fft.Lane {
	if r < 0 || r >= ps.rows || c < 0 || c >= ps.cols {
		panic(fmt.Sprintf("core: anchor (%d,%d) outside valid positions %dx%d",
			r, c, ps.rows, ps.cols))
	}
	src, base := ps.locate(r, c)
	return src[base : base+ps.sk.k : base+ps.sk.k]
}

// SketchAt reads the sketch of the tile anchored at (r, c) into dst
// (allocated if too small) in O(k) time.
func (ps *PlaneSet) SketchAt(r, c int, dst []float64) []float64 {
	src := ps.lanes(r, c)
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v.Float32())
	}
	return dst
}

// AddSketchAt accumulates the sketch at (r, c) into dst (len k), in
// float64. The pool's four-corner compound sketch is gather, which sums
// the widened lanes in float32 and widens the sum once.
func (ps *PlaneSet) AddSketchAt(r, c int, dst []float64) {
	src := ps.lanes(r, c)
	if len(dst) != len(src) {
		panic(fmt.Sprintf("core: AddSketchAt dst length %d != k=%d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += float64(v.Float32())
	}
}

// copyCols copies anchor columns [c0, c1) of the plane set into dst at
// dstStride lanes a row, dst[0] being lane 0 of position (0, c0): a
// dense band of width c1−c0 when dstStride = (c1−c0)·k.
func (ps *PlaneSet) copyCols(c0, c1 int, dst []fft.Lane, dstStride int) {
	k := ps.sk.k
	for bi := range ps.bands {
		b := &ps.bands[bi]
		lo, hi := max(c0, b.c0), min(c1, b.c1)
		if lo >= hi {
			continue
		}
		for r := 0; r < ps.rows; r++ {
			copy(dst[r*dstStride+(lo-c0)*k:r*dstStride+(hi-c0)*k],
				b.data[r*b.stride+(lo-b.c0)*k:r*b.stride+(hi-b.c0)*k])
		}
	}
}

// Distance estimates the Lp distance between the tiles anchored at
// (r1, c1) and (r2, c2) on pooled scratch: no allocation once warm.
func (ps *PlaneSet) Distance(r1, c1, r2, c2 int) float64 {
	ca, cb := corners{ps.lanes(r1, c1)}, corners{ps.lanes(r2, c2)}
	return ps.sk.distanceAt(&ca, &cb)
}
