package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/quantile"
	"repro/internal/table"
)

// Batched sketch-distance kernels. The serving layer answers many
// distance estimates per request; evaluating them one at a time repeats
// the same fixed costs (scratch allocation, per-call setup) N times and
// walks each sketch pair in isolation. The kernels here amortize those
// costs across the batch:
//
//   - Sketches are assembled into a LANE-MAJOR matrix: entry (lane l,
//     item i) lives at data[l*n+i]. The estimator inner loop then
//     iterates the k sketch lanes ONCE, updating all n running
//     estimates with a unit-stride sweep per lane — instead of n
//     independent k-lane sweeps, each touching its own scattered pair
//     of slices.
//   - All working memory comes from a package sync.Pool, so a
//     steady-state batch evaluation allocates O(1) per call, not per
//     item.
//
// Every batched result is bit-identical to its one-at-a-time
// counterpart (Pool.Distance / Sketcher.DistanceScratch): per item, the
// same differences enter the same estimator in the same lane order.

// batchBuf pools float64 scratch shared by the batch kernels. Buffers
// are handed out at the exact requested length but keep their grown
// capacity across uses.
var batchBuf = sync.Pool{New: func() any { return new([]float64) }}

func getBuf(n int) *[]float64 {
	bp := batchBuf.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]float64) { batchBuf.Put(bp) }

// SketchBatch computes the pool sketches of n rectangles into a
// lane-major matrix: the returned slice has length n*k with rect i's
// lane l at index l*n+i — the layout Sketcher.DistanceBatchLaneMajor
// consumes. dst is reused when it has capacity n*k. Each rect must
// individually satisfy CanSketch; the first failure aborts the batch
// (callers that need per-item errors validate up front).
func (pl *Pool) SketchBatch(rects []table.Rect, dst []float64) ([]float64, error) {
	n := len(rects)
	if cap(dst) < n*pl.k {
		dst = make([]float64, n*pl.k)
	}
	dst = dst[:n*pl.k]
	tmp := getBuf(pl.k)
	defer putBuf(tmp)
	for i, rect := range rects {
		sk, err := pl.Sketch(rect, *tmp)
		if err != nil {
			return nil, fmt.Errorf("core: batch sketch %d: %w", i, err)
		}
		// Scatter item i into column i of the lane-major matrix.
		for l, v := range sk {
			dst[l*n+i] = v
		}
	}
	return dst, nil
}

// DistanceBatchLaneMajor estimates n distances at once from two
// lane-major sketch matrices (layout of Pool.SketchBatch: entry (l, i)
// at index l*n+i; both must have length n*k). dst is reused when it has
// capacity n. Item i's estimate is bit-identical to
// DistanceScratch(a_i, b_i, ...) — same differences, same lane order,
// same estimator arithmetic.
//
// For the L2 estimator the loop is the lane-major sweep the layout
// exists for: each lane contributes one unit-stride pass updating all n
// running sums. The median estimator needs all k per-item differences
// before its selection step, so the kernel fills the |diff| matrix with
// the same lane-major sweep and then runs one pooled-scratch selection
// per item.
func (s *Sketcher) DistanceBatchLaneMajor(a, b []float64, n int, dst []float64) []float64 {
	if n < 0 || len(a) != n*s.k || len(b) != n*s.k {
		panic(fmt.Sprintf("core: batch sketch lengths %d/%d != n*k = %d*%d", len(a), len(b), n, s.k))
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	switch s.estimator {
	case EstimatorL2:
		for i := range dst {
			dst[i] = 0
		}
		for l := 0; l < s.k; l++ {
			av, bv := a[l*n:(l+1)*n], b[l*n:(l+1)*n]
			for i, x := range av {
				d := x - bv[i]
				dst[i] += d * d
			}
		}
		for i := range dst {
			dst[i] = math.Sqrt(dst[i] / float64(s.k))
		}
	default:
		diffs := getBuf(n * s.k)
		work := getBuf(s.k)
		scratch := getScratch(s.k)
		for l := 0; l < s.k; l++ {
			av, bv, dv := a[l*n:(l+1)*n], b[l*n:(l+1)*n], (*diffs)[l*n:(l+1)*n]
			for i, x := range av {
				dv[i] = math.Abs(x - bv[i])
			}
		}
		for i := range dst {
			// Gather item i's k differences in lane order — the values
			// AbsMedianDiff selects over, one item at a time.
			w := *work
			for l := 0; l < s.k; l++ {
				w[l] = (*diffs)[l*n+i]
			}
			dst[i] = quantile.Median(w, *scratch) / s.scale
		}
		putScratch(scratch)
		putBuf(work)
		putBuf(diffs)
	}
	return dst
}

// DistanceBatch estimates the Lp distance of n rectangle pairs from
// their pool sketches in one pass: O(k) sketch assembly per item, then
// one lane-major estimator sweep over the whole batch. Result i is
// bit-identical to Distance(as[i], bs[i]). dst is reused when it has
// capacity n. Pairs may have different sizes from each other; within a
// pair the sizes must match.
func (pl *Pool) DistanceBatch(as, bs []table.Rect, dst []float64) ([]float64, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("core: batch of %d vs %d rects", len(as), len(bs))
	}
	n := len(as)
	for i := range as {
		if as[i].Rows != bs[i].Rows || as[i].Cols != bs[i].Cols {
			return nil, fmt.Errorf("core: distance between different-size rects %v and %v", as[i], bs[i])
		}
	}
	ma := getBuf(n * pl.k)
	mb := getBuf(n * pl.k)
	defer putBuf(ma)
	defer putBuf(mb)
	sa, err := pl.SketchBatch(as, *ma)
	if err != nil {
		return nil, err
	}
	sb, err := pl.SketchBatch(bs, *mb)
	if err != nil {
		return nil, err
	}
	return pl.refSketcher().DistanceBatchLaneMajor(sa, sb, n, dst), nil
}
