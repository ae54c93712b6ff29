package prune

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Source describes one nearest-candidate problem: N candidates, each
// with an exact row-power-sum accessor and optionally two cheap lower
// bounds on its whole power sum, in tiers: a one-number TotalBound in
// front of the LowerBound it never exceeds. The engine never mutates
// anything reachable from a Source, so a Source over immutable snapshot
// state is safe for concurrent queries.
type Source struct {
	// N is the number of candidates.
	N int
	// Rows and Cols are the candidate rectangle extents; the exact
	// refinement evaluates Rows row power sums of Cols cells each.
	Rows, Cols int
	// RowPowSum returns Σ|a−b|^p over row r of candidate i against the
	// query — the same quantity the full scan accumulates, in the same
	// order, so completed refinements are bit-identical to it.
	RowPowSum func(i, r int) float64
	// LowerBound, when non-nil, returns a number never above candidate
	// i's completed power sum as RowPowSum accumulates it (0 certifies
	// nothing; NaN and +Inf are read as 0). It must be sound in floating
	// point, not just over the reals: a candidate whose bound exceeds the
	// best completed sum is never read. Must be pure. Nil is a bound of 0
	// that costs nothing.
	LowerBound func(i int) float64
	// BoundCoords is how many coordinates one LowerBound call compares
	// (a tile's row sums: Rows); the statistics count them as evaluated.
	BoundCoords int
	// TotalBound, when non-nil, is a cheaper lower bound that compares
	// one coordinate (in the serving layer the tiles' signed totals), read
	// as LowerBound is and sound in the same sense. The engine takes a
	// candidate's LowerBound only where its TotalBound has not already
	// decided the question LowerBound would be asked. Where
	// TotalBound ≤ LowerBound, as the marginal bounds are over the reals,
	// every decision is the one the engine makes without it — the same
	// first candidate, cutoffs, cells and abandonments — and only
	// BoundCoordinates changes; elsewhere the answer is still the full
	// scan's.
	TotalBound func(i int) float64
	// Skip is a candidate index excluded from the scan (the query's own
	// tile in a nearest query); -1 skips nothing.
	Skip int
}

// Config tunes one progressive search.
type Config struct {
	// Workers bounds the fan-out inside each chunk. Any value produces
	// identical results and statistics; 0 means GOMAXPROCS.
	Workers int
	// Chunk is the refinement chunk size; the exact cutoff advances only
	// at chunk boundaries, which is what makes the scan deterministic
	// under parallelism. 0 selects 32.
	Chunk int
}

// Stats reports what one progressive search evaluated and avoided. All
// fields are deterministic functions of (Source, Config).
type Stats struct {
	// Candidates is how many candidates entered the search (N minus the
	// skipped index, when present).
	Candidates int
	// ScreenSurvivors is how many candidates reached exact refinement:
	// all of them.
	ScreenSurvivors int
	// RefineAbandoned is how many candidates refinement did not complete:
	// ruled out by their lower bound before their first row, or by the
	// exact partial-sum cutoff before their last.
	RefineAbandoned int
	// CellsEvaluated counts the coordinates refinement consumed: the
	// marginal coordinates its lower bounds compared (BoundCoordinates)
	// plus the table cells it read (rows evaluated × Cols).
	CellsEvaluated int64
	// BoundCoordinates is the lower bounds' share of CellsEvaluated: one
	// a TotalBound taken (every candidate's, when the Source has one) and
	// BoundCoords a LowerBound taken.
	BoundCoordinates int64
	// CoordinatesTotal is the full-scan coordinate cost of the same
	// query: Candidates × Rows × Cols exact cells.
	CoordinatesTotal int64
}

// PrunedCoordinates is how many full-scan coordinates the progressive
// scan avoided (clamped at 0: on data no bound separates, the scan costs
// its bounds on top of the cells it replaces).
func (st Stats) PrunedCoordinates() int64 {
	return max(st.CoordinatesTotal-st.CellsEvaluated, 0)
}

// ErrNoCandidates is returned when no candidate completes refinement —
// every index was skipped, or every exact distance was NaN or +Inf (the
// full scan's argmin fails identically).
var ErrNoCandidates = errors.New("prune: no candidate survives the scan")

// Nearest runs the progressive search and returns the winning candidate
// index and its exact Lp power sum (Σ|a−b|^p; callers apply the final
// 1/p power). The result is bit-identical to the full scan's
// lowest-index argmin, including tie handling. ctx cancels between
// chunks.
func Nearest(ctx context.Context, src Source, cfg Config) (int, float64, Stats, error) {
	if err := src.validate(); err != nil {
		return 0, 0, Stats{}, err
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = 32
	}
	workers := parallel.Resolve(cfg.Workers)

	// All working memory is recycled through the package scratch pool, so
	// a steady-state search allocates O(1).
	sc := getScratch(src.N, min(chunk, src.N))
	defer putScratch(sc)

	for i := 0; i < src.N; i++ {
		if i != src.Skip {
			sc.cands = append(sc.cands, i)
		}
	}
	stats := Stats{
		Candidates:       len(sc.cands),
		ScreenSurvivors:  len(sc.cands),
		CoordinatesTotal: int64(len(sc.cands)) * int64(src.Rows) * int64(src.Cols),
	}
	idx, sum, err := refine(ctx, &src, chunk, workers, sc, &stats)
	return idx, sum, stats, err
}

func (src *Source) validate() error {
	if src.N < 0 {
		return fmt.Errorf("prune: invalid source N=%d", src.N)
	}
	if src.Rows < 0 || src.Cols < 0 {
		return fmt.Errorf("prune: negative extents %dx%d", src.Rows, src.Cols)
	}
	if src.N > 0 && src.RowPowSum == nil {
		return fmt.Errorf("prune: nil RowPowSum accessor")
	}
	return nil
}

// refine is the one exact engine: the argmin of the completed power sums
// over sc.cands, reading as few cells as three sound devices allow.
//
// Bounds before cells, in tiers: a candidate is ruled out on its
// TotalBound (one number) before its LowerBound (BoundCoords numbers) is
// taken, and on its LowerBound before a cell is read. Every TotalBound is
// taken first, across the workers. A serial walk then takes a LowerBound
// only while the TotalBound is below the smallest LowerBound seen so far
// (a rule that depends on the order, so the walk is not split): a
// TotalBound at or above it puts the LowerBound there too, where it cannot
// be a strictly smaller minimum. That finds the lowest-index argmin of the
// LowerBounds, whose candidate is refined first and in full, so a good
// cutoff exists before anything else is read. The rest are refined in index order in chunks,
// each rejected on its TotalBound against the cutoff, else on its
// LowerBound (taken now if the first pass did not), else read.
//
// The monotone cutoff: row power sums are non-negative, so a partial sum
// strictly above the best completed sum can never win, even on ties.
//
// Every elimination is strict, and the merge keeps a strict improvement
// or an equal sum at a lower index — the full scan's lowest-index argmin
// whatever the refinement order. A chunk's cutoff is the best sum as the
// chunk began, and chunk results (the LowerBounds taken included) merge
// serially, so the answer and the statistics are the same at any worker
// count.
func refine(ctx context.Context, src *Source, chunk, workers int, sc *scratch, stats *Stats) (int, float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	cands := sc.cands
	totals, bounds := sc.totals[:len(cands)], sc.bounds[:len(cands)]
	rowCoords := int64(src.BoundCoords)
	if src.LowerBound == nil {
		rowCoords = 0
	}
	if src.TotalBound != nil {
		if err := parallel.BlocksCtx(ctx, workers, len(cands), func(lo, hi, _ int) {
			for n := lo; n < hi; n++ {
				totals[n] = sound(src.TotalBound(cands[n]))
			}
		}); err != nil {
			return 0, 0, err
		}
		stats.BoundCoordinates = int64(len(cands))
	} else {
		for n := range totals {
			totals[n] = math.Inf(-1) // no TotalBound: every LowerBound is taken
		}
	}
	var cells int64

	// bounds[n] is NaN until candidate n's LowerBound is taken.
	first, minBound := -1, math.Inf(1)
	for n, i := range cands {
		bounds[n] = math.NaN()
		if totals[n] < minBound {
			b := src.lowerBound(i)
			bounds[n] = b
			stats.BoundCoordinates += rowCoords
			if b < minBound {
				first, minBound = n, b
			}
		}
	}

	bestIdx, bestSum := -1, math.Inf(1)
	if first >= 0 {
		var sum float64
		for r := 0; r < src.Rows; r++ {
			sum += src.RowPowSum(cands[first], r)
		}
		cells += int64(src.Rows) * int64(src.Cols)
		if sum < bestSum {
			bestIdx, bestSum = cands[first], sum
		}
	}

	// One closure serves every chunk. It reads the chunk's start and
	// cutoff from lo and cut, which change only between BlocksCtx calls
	// (a call returns after its workers do), so a query allocates it once
	// rather than once a chunk.
	var lo int
	var cut float64
	refineChunk := func(blo, bhi, _ int) {
		for n := lo + blo; n < lo+bhi; n++ {
			slot := &sc.ref[n-lo]
			*slot = refSlot{abandoned: true}
			if n == first || totals[n] > cut {
				continue
			}
			b := bounds[n]
			if math.IsNaN(b) {
				b = src.lowerBound(cands[n])
				slot.tookBound = true
			}
			if b > cut {
				continue
			}
			var sum float64
			r := 0
			for r < src.Rows {
				sum += src.RowPowSum(cands[n], r)
				r++
				if sum > cut {
					break
				}
			}
			slot.sum, slot.rows, slot.abandoned = sum, r, sum > cut
		}
	}
	for lo = 0; lo < len(cands); lo += chunk {
		hi := min(lo+chunk, len(cands))
		cut = bestSum
		if err := parallel.BlocksCtx(ctx, workers, hi-lo, refineChunk); err != nil {
			return 0, 0, err
		}
		for n := lo; n < hi; n++ {
			if n == first {
				continue
			}
			rs := sc.ref[n-lo]
			if rs.tookBound {
				stats.BoundCoordinates += rowCoords
			}
			cells += int64(rs.rows) * int64(src.Cols)
			if rs.abandoned {
				stats.RefineAbandoned++
				continue
			}
			if i := cands[n]; rs.sum < bestSum || (rs.sum == bestSum && i < bestIdx) {
				bestSum, bestIdx = rs.sum, i
			}
		}
	}
	stats.CellsEvaluated = stats.BoundCoordinates + cells
	if bestIdx < 0 {
		return 0, 0, ErrNoCandidates
	}
	return bestIdx, bestSum, nil
}

// lowerBound is candidate i's LowerBound as the engine reads it.
func (src *Source) lowerBound(i int) float64 {
	if src.LowerBound == nil {
		return 0
	}
	return sound(src.LowerBound(i))
}

// sound reads a bound as the engine does: NaN and +Inf certify nothing.
func sound(b float64) float64 {
	if b < math.Inf(1) {
		return b
	}
	return 0
}
