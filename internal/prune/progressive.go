package prune

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/quantile"
)

// Source describes one nearest-candidate problem: N candidates, each
// with a precomputed k-lane sketch and an exact row-power-sum accessor.
// The engine never mutates anything reachable from a Source, so a Source
// over immutable snapshot state is safe for concurrent queries.
type Source struct {
	// K is the sketch size; QSketch and every Sketch(i) have length K.
	K int
	// N is the number of candidates.
	N int
	// QSketch is the query's sketch (e.g. the pool's compound sketch).
	QSketch []float64
	// Sketch returns candidate i's sketch. Must be pure.
	Sketch func(i int) []float64
	// CompoundSlack is the worst-case multiplicative overcount of the
	// sketch estimate relative to the TRUE Lp distance: 1 when every
	// sketch is an exact dyadic sketch (Theorem 1/2 band), 4 when
	// compound sketches are involved (Theorem 5 counts each cell with
	// multiplicity ≤ 4, and (Σm^p|d|^p)^(1/p) ≤ 4·(Σ|d|^p)^(1/p) for any
	// p > 0). Values < 1 are treated as 1.
	CompoundSlack float64
	// Rows and Cols are the candidate rectangle extents; the exact
	// refinement evaluates Rows row power sums of Cols cells each.
	Rows, Cols int
	// RowPowSum returns Σ|a−b|^p over row r of candidate i against the
	// query — the same quantity the full scan accumulates, in the same
	// order, so completed refinements are bit-identical to it.
	RowPowSum func(i, r int) float64
	// Estimator selects the partial-estimate flavor; must match how the
	// sketches were built (core.EstimatorAuto resolves by P).
	Estimator core.Estimator
	// Scale is B(p) for the median estimator (ignored for L2).
	Scale float64
	// Skip is a candidate index excluded from the scan (the query's own
	// tile in a nearest query); -1 skips nothing.
	Skip int
}

// Config tunes one progressive search.
type Config struct {
	// Plan enables the confidence margin; nil selects the exact margin
	// (screen orders only, refinement is provably lossless).
	Plan *Plan
	// Epsilon is extra headroom on the confidence screen band: survivors
	// are the candidates not certified farther than (1+Epsilon)× the
	// best estimate's certified distance band. 0 is valid (tightest
	// screen the confidence level allows).
	Epsilon float64
	// Workers bounds the fan-out inside each chunk. Any value produces
	// identical results and statistics; 0 means GOMAXPROCS.
	Workers int
	// Chunk is the candidate chunk size; cutoff references advance only
	// at chunk boundaries, which is what makes the scan deterministic
	// under parallelism. 0 selects 32.
	Chunk int
	// ScreenLanes is how many sketch lanes the EXACT margin evaluates
	// per candidate for its ordering estimate (the order affects only
	// speed, never the answer). 0 selects min(K, 16).
	ScreenLanes int
}

// Stats reports what one progressive search evaluated and avoided. All
// fields are deterministic functions of (Source, Config).
type Stats struct {
	// Candidates is how many candidates entered the screen (N minus the
	// skipped index, when present).
	Candidates int
	// ScreenSurvivors is how many candidates reached exact refinement.
	ScreenSurvivors int
	// PrunedCandidates is how many the confidence screen eliminated
	// (always 0 under the exact margin).
	PrunedCandidates int
	// RefineAbandoned is how many survivors the exact partial-sum cutoff
	// abandoned before their last row.
	RefineAbandoned int
	// LanesEvaluated counts sketch coordinates consumed by the screen.
	LanesEvaluated int64
	// CellsEvaluated counts table cells consumed by exact refinement
	// (rows evaluated × Cols).
	CellsEvaluated int64
	// CoordinatesTotal is the full-scan coordinate cost of the same
	// query: Candidates × Rows × Cols exact cells.
	CoordinatesTotal int64
}

// CoordinatesEvaluated is the progressive scan's total coordinate cost:
// sketch lanes plus exact cells.
func (st Stats) CoordinatesEvaluated() int64 {
	return st.LanesEvaluated + st.CellsEvaluated
}

// PrunedCoordinates is how many full-scan coordinates the progressive
// scan avoided (clamped at 0: a degenerate problem can cost more in
// lanes than the scan it replaces).
func (st Stats) PrunedCoordinates() int64 {
	if p := st.CoordinatesTotal - st.CoordinatesEvaluated(); p > 0 {
		return p
	}
	return 0
}

// ErrNoCandidates is returned when no candidate completes refinement —
// every index was skipped, or every exact distance was NaN (the full
// scan's argmin fails identically).
var ErrNoCandidates = errors.New("prune: no candidate survives the scan")

// screenSlot is one candidate's screen outcome (disjoint per-candidate
// slot: workers never share).
type screenSlot struct {
	est    float64
	lanes  int
	pruned bool
	in     bool // participated (not the skipped index)
}

// Nearest runs the coarse-to-fine progressive search and returns the
// winning candidate index and its exact Lp power sum (Σ|a−b|^p; callers
// apply the final 1/p power). Under the exact margin the result is
// bit-identical to the full scan's lowest-index argmin, including tie
// handling. ctx cancels between chunks.
func Nearest(ctx context.Context, src Source, cfg Config) (int, float64, Stats, error) {
	if err := src.validate(); err != nil {
		return 0, 0, Stats{}, err
	}
	est := src.Estimator
	if est == core.EstimatorAuto {
		if cfg.Plan != nil {
			est = cfg.Plan.Estimator()
		} else if src.Scale > 0 {
			est = core.EstimatorMedian
		} else {
			est = core.EstimatorL2
		}
	}
	if est == core.EstimatorMedian && !(src.Scale > 0) {
		return 0, 0, Stats{}, fmt.Errorf("prune: median estimator needs a positive Scale, got %v", src.Scale)
	}
	if cfg.Plan != nil {
		if cfg.Plan.K() != src.K {
			return 0, 0, Stats{}, fmt.Errorf("prune: plan k=%d, source k=%d", cfg.Plan.K(), src.K)
		}
		if cfg.Plan.Estimator() != est {
			return 0, 0, Stats{}, fmt.Errorf("prune: plan estimator %v, source estimator %v", cfg.Plan.Estimator(), est)
		}
	}
	if !(cfg.Epsilon >= 0) {
		return 0, 0, Stats{}, fmt.Errorf("prune: epsilon %v must be ≥ 0", cfg.Epsilon)
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = 32
	}
	workers := parallel.Resolve(cfg.Workers)
	slack := src.CompoundSlack
	if !(slack > 1) {
		slack = 1
	}
	screenLanes := cfg.ScreenLanes
	if screenLanes <= 0 {
		screenLanes = 16
	}
	if screenLanes > src.K {
		screenLanes = src.K
	}

	var stats Stats

	// ---- Screen: progressive sketch estimates, chunked. All working
	// memory (per-candidate slots, per-chunk-position diff buffers and
	// selection scratch — each position is owned by exactly one
	// candidate at a time —,
	// the survivor list, and the refinement slots) is recycled through
	// the package scratch pool, so a steady-state search allocates O(1).
	sc := getScratch(src.N, src.K, max(min(chunk, src.N), 1))
	defer putScratch(sc)
	slots := sc.slots
	diffsBuf, selBuf := sc.diffs, sc.sel
	bestEst := math.Inf(1)
	for lo := 0; lo < src.N; lo += chunk {
		hi := min(lo+chunk, src.N)
		ref := math.Inf(1)
		if cfg.Plan != nil {
			ref = cfg.Plan.pruneRef(bestEst, cfg.Epsilon, slack)
		}
		if err := parallel.ForCtx(ctx, workers, hi-lo, func(n int) {
			i := lo + n
			if i == src.Skip {
				return
			}
			sl := &slots[i]
			sl.in = true
			if cfg.Plan != nil {
				sl.est, sl.lanes, sl.pruned = screenConfidence(
					src, cfg.Plan, est, ref, i, diffsBuf[n], selBuf[n])
			} else {
				sl.est, sl.lanes = screenOrder(src, est, screenLanes, i, diffsBuf[n], selBuf[n])
			}
		}); err != nil {
			return 0, 0, stats, err
		}
		// Serial merge in index order: the reference for the NEXT chunk.
		for i := lo; i < hi; i++ {
			sl := &slots[i]
			if !sl.in {
				continue
			}
			stats.Candidates++
			stats.LanesEvaluated += int64(sl.lanes)
			if !sl.pruned && sl.est < bestEst {
				bestEst = sl.est
			}
		}
	}
	stats.CoordinatesTotal = int64(stats.Candidates) * int64(src.Rows) * int64(src.Cols)

	// Survivor filter: candidates that completed the screen early (when
	// the reference was still loose) are re-tested against the final
	// reference, at the final checkpoint's certified level.
	survivors := sc.survivors
	if cfg.Plan != nil {
		finalRef := cfg.Plan.pruneRef(bestEst, cfg.Epsilon, slack)
		hiK := cfg.Plan.hi[len(cfg.Plan.hi)-1]
		for i := range slots {
			sl := &slots[i]
			if !sl.in || sl.pruned {
				continue
			}
			if !math.IsInf(finalRef, 1) && sl.est > hiK*finalRef {
				sl.pruned = true
				continue
			}
			survivors = append(survivors, i)
		}
		stats.PrunedCandidates = stats.Candidates - len(survivors)
	} else {
		for i := range slots {
			if slots[i].in {
				survivors = append(survivors, i)
			}
		}
	}
	stats.ScreenSurvivors = len(survivors)

	// Refine in estimated-nearest-first order, so the best exact
	// distance lands early and the partial-sum cutoff bites hard. NaN
	// estimates order last (they certify nothing).
	sc.survivors = survivors
	sc.sortSurvivors()

	// ---- Refine: exact distances with the sound monotone cutoff.
	bestIdx, bestSum := -1, math.Inf(1)
	ref := sc.ref
	for lo := 0; lo < len(survivors); lo += chunk {
		hi := min(lo+chunk, len(survivors))
		bound := bestSum
		if err := parallel.ForCtx(ctx, workers, hi-lo, func(n int) {
			i := survivors[lo+n]
			var sum float64
			r := 0
			abandoned := false
			for ; r < src.Rows; r++ {
				sum += src.RowPowSum(i, r)
				if sum > bound {
					// Monotone partial sums: this candidate's final sum is
					// strictly above a completed competitor's — it can never
					// be the argmin, even on ties.
					r++
					abandoned = true
					break
				}
			}
			ref[n] = refSlot{sum: sum, rows: r, abandoned: abandoned}
		}); err != nil {
			return 0, 0, stats, err
		}
		for n := lo; n < hi; n++ {
			rs := ref[n-lo]
			i := survivors[n]
			stats.CellsEvaluated += int64(rs.rows) * int64(src.Cols)
			if rs.abandoned {
				stats.RefineAbandoned++
				continue
			}
			// Full-scan argmin semantics: strict improvement, or an
			// equal sum at a lower index (merge order is irrelevant
			// under this rule).
			if rs.sum < bestSum || (rs.sum == bestSum && i < bestIdx) {
				bestSum, bestIdx = rs.sum, i
			}
		}
	}
	if bestIdx < 0 {
		return 0, 0, stats, ErrNoCandidates
	}
	return bestIdx, bestSum, stats, nil
}

func (src *Source) validate() error {
	if src.N < 0 || src.K < 1 {
		return fmt.Errorf("prune: invalid source N=%d k=%d", src.N, src.K)
	}
	if len(src.QSketch) != src.K {
		return fmt.Errorf("prune: query sketch length %d != k=%d", len(src.QSketch), src.K)
	}
	if src.Rows < 0 || src.Cols < 0 {
		return fmt.Errorf("prune: negative extents %dx%d", src.Rows, src.Cols)
	}
	if src.N > 0 && (src.Sketch == nil || src.RowPowSum == nil) {
		return fmt.Errorf("prune: nil Sketch or RowPowSum accessor")
	}
	return nil
}

// screenConfidence evaluates candidate i's sketch lanes block by block,
// testing the partial estimate against the Chernoff threshold at every
// checkpoint. It returns the last estimate computed, the lanes
// consumed, and whether the candidate was certified prunable.
func screenConfidence(src Source, plan *Plan, est core.Estimator, ref float64, i int, diffs []float64, sel quantile.Scratch) (float64, int, bool) {
	sk := src.Sketch(i)
	var sumsq float64
	e := math.NaN()
	prev := 0
	for j, b := range plan.checkpoints {
		switch est {
		case core.EstimatorL2:
			for l := prev; l < b; l++ {
				d := src.QSketch[l] - sk[l]
				sumsq += d * d
			}
		default:
			for l := prev; l < b; l++ {
				diffs[l] = math.Abs(src.QSketch[l] - sk[l])
			}
		}
		prev = b
		// With no finite reference yet (first chunk, or a degenerate
		// plan) intermediate estimates decide nothing — skip their
		// selection cost and estimate once at the full k.
		if math.IsInf(ref, 1) && b != src.K {
			continue
		}
		if est == core.EstimatorL2 {
			e = math.Sqrt(sumsq / float64(b))
		} else {
			e = quantile.Median(diffs[:b], sel) / src.Scale
		}
		if e > plan.hi[j]*ref {
			return e, b, true
		}
	}
	return e, src.K, false
}

// screenOrder is the exact-margin screen: a fixed-prefix estimate used
// only to order refinement (never to eliminate).
func screenOrder(src Source, est core.Estimator, lanes, i int, diffs []float64, sel quantile.Scratch) (float64, int) {
	sk := src.Sketch(i)
	switch est {
	case core.EstimatorL2:
		var sumsq float64
		for l := 0; l < lanes; l++ {
			d := src.QSketch[l] - sk[l]
			sumsq += d * d
		}
		return math.Sqrt(sumsq / float64(lanes)), lanes
	default:
		for l := 0; l < lanes; l++ {
			diffs[l] = math.Abs(src.QSketch[l] - sk[l])
		}
		return quantile.Median(diffs[:lanes], sel) / src.Scale, lanes
	}
}
