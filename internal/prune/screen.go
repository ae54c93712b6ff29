package prune

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/quantile"
)

const (
	signBit = 1 << 63
	infBits = 0x7FF << 52 // math.Float64bits(+Inf)

	// pollStride is how many candidates the reference pass compares
	// between context polls.
	pollStride = 64
)

// screenSlot is one candidate's checkpoint outcome (disjoint
// per-candidate slot: workers never share).
type screenSlot struct {
	lanes  int32
	pruned bool
}

// l2Run is one candidate's running sum of squared lane differences, which
// both passes of the L2 screen extend: no lane is read twice.
type l2Run struct {
	sumsq float64
	done  int // checkpoints summed so far
}

// advance sums the lanes between checkpoint j−1 and checkpoint j and
// returns the estimate of that prefix, the root-mean-square difference.
func (run *l2Run) advance(q, sk []float64, checkpoints []int, j int) float64 {
	lo, b := 0, checkpoints[j]
	if j > 0 {
		lo = checkpoints[j-1]
	}
	for l := lo; l < b; l++ {
		d := q[l] - sk[l]
		run.sumsq += d * d
	}
	run.done = j + 1
	return math.Sqrt(run.sumsq / float64(b))
}

// screen is the confidence margin's elimination, two passes over the
// candidates' sketches; it leaves the survivors in sc.cands in index
// order and the lanes it consumed in stats.
//
// The first pass finds the reference: the candidate of the smallest FULL
// estimate, which always survives (a prefix of the best candidate can
// exceed its own band; its full estimate cannot exceed itself). Under the
// median estimator an argmin does not need most medians — the count-first
// kernel selects one only when counting cannot rule the candidate out.
// Under the L2 estimator it does not need most lanes: a sum of squares
// only grows, so a candidate is left at the first checkpoint where its
// running sum exceeds the best full one, with every prefix estimate taken
// so far kept for the second pass to resume from.
//
// The second pass tests every other candidate, checkpoint by checkpoint,
// against that one final reference. The tail bound behind a checkpoint is
// a statement about how many lanes fall beyond a threshold, so the test
// is a count: with T_j = HiAt(j)·ref·B(p), the median of the first b
// lanes exceeds T_j exactly when more than half of them do. No order
// statistic is selected, and every candidate is independent of every
// other, so the pass fans out freely.
func screen(ctx context.Context, src *Source, cfg Config, workers int, sc *scratch, stats *Stats) error {
	plan := cfg.Plan
	if src.K < 1 || plan.K() != src.K {
		return fmt.Errorf("prune: plan k=%d, source k=%d", plan.K(), src.K)
	}
	if len(src.QSketch) != src.K {
		return fmt.Errorf("prune: query sketch length %d != k=%d", len(src.QSketch), src.K)
	}
	if src.N > 0 && src.Sketch == nil {
		return fmt.Errorf("prune: nil Sketch accessor")
	}
	est := src.Estimator
	if est == core.EstimatorAuto {
		est = plan.Estimator()
	}
	if plan.Estimator() != est {
		return fmt.Errorf("prune: plan estimator %v, source estimator %v", plan.Estimator(), est)
	}
	median := est == core.EstimatorMedian
	if median && !(src.Scale > 0) {
		return fmt.Errorf("prune: median estimator needs a positive Scale, got %v", src.Scale)
	}
	slack := src.CompoundSlack
	if !(slack > 1) {
		slack = 1
	}
	q, k := src.QSketch, src.K
	m := len(plan.checkpoints)

	// ---- Reference pass (serial: each count is against the best so far).
	refIdx, bestEst := -1, math.Inf(1)
	bestMedian, bestSumsq := math.Inf(1), math.Inf(1)
	if median {
		sc.sel = sc.sel.Grow(k)
	} else {
		sc.growL2(src.N, m)
	}
	for i := 0; i < src.N; i++ {
		if i%pollStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if i == src.Skip {
			continue
		}
		stats.Candidates++
		if median {
			if med, selected := quantile.AbsMedianDiffBelow(q, src.Sketch(i), bestMedian, sc.sel); selected && med < bestMedian {
				refIdx, bestMedian = i, med
			}
			continue
		}
		run, prefix := &sc.runs[i], sc.prefix[i*m:(i+1)*m]
		*run = l2Run{}
		for j := 0; j < m && !(run.sumsq > bestSumsq); j++ {
			prefix[j] = run.advance(q, src.Sketch(i), plan.checkpoints, j)
		}
		if run.done == m && prefix[m-1] < bestEst {
			refIdx, bestEst, bestSumsq = i, prefix[m-1], run.sumsq
		}
	}
	if median {
		bestEst = bestMedian / src.Scale
		stats.LanesEvaluated = int64(stats.Candidates) * int64(k)
	}

	// ---- Checkpoint pass. A reference that is not finite (no finite
	// estimate, a degenerate plan, an overflowed band) eliminates nobody.
	slots := sc.slots[:src.N]
	clear(slots)
	if ref := plan.pruneRef(bestEst, cfg.Epsilon, slack); ref <= math.MaxFloat64 {
		thr := sc.thr[:0]
		for j := range plan.checkpoints {
			t := plan.hi[j] * ref
			if median {
				t *= src.Scale
			}
			thr = append(thr, t)
		}
		sc.thr = thr
		if median {
			sc.growKeys(parallel.NumBlocks(workers, src.N) * k)
		}
		if err := parallel.BlocksCtx(ctx, workers, src.N, func(lo, hi, block int) {
			for i := lo; i < hi; i++ {
				if i == src.Skip || i == refIdx {
					continue
				}
				sl := &slots[i]
				if median {
					sl.lanes, sl.pruned = countScreen(q, src.Sketch(i), plan.checkpoints, thr, sc.keys[block*k:(block+1)*k])
				} else {
					sl.pruned = l2Screen(q, src.Sketch(i), plan.checkpoints, thr, &sc.runs[i], sc.prefix[i*m:(i+1)*m])
				}
			}
		}); err != nil {
			return err
		}
	}
	for i := range slots {
		if i == src.Skip {
			continue
		}
		if median {
			stats.LanesEvaluated += int64(slots[i].lanes)
		} else {
			stats.LanesEvaluated += int64(plan.checkpoints[sc.runs[i].done-1])
		}
		if !slots[i].pruned {
			sc.cands = append(sc.cands, i)
		}
	}
	return nil
}

// l2Screen runs one candidate's checkpoint tests under the L2 estimator:
// the prefix estimates the reference pass took, then the run resumed where
// that pass left it, against thr[j]. It reports whether a test eliminated
// the candidate.
func l2Screen(q, sk []float64, checkpoints []int, thr []float64, run *l2Run, prefix []float64) bool {
	for j := range checkpoints {
		if j >= run.done {
			prefix[j] = run.advance(q, sk, checkpoints, j)
		}
		if prefix[j] > thr[j] {
			return true
		}
	}
	return false
}

// countScreen runs one candidate's checkpoint tests under the median
// estimator. At checkpoint j it asks whether the median of the first
// b = checkpoints[j] absolute lane differences exceeds thr[j] — the same
// decision as selecting that median, made by counting.
//
// Let c be the number of those b lanes above thr[j]. The median's rank is
// (b−1)/2, and for an even b it is the mean of ranks b/2−1 and b/2. If
// c ≥ b/2+1 the central lanes are all above the threshold and so is the
// median (a rounded mean of two numbers above t is above t); if c < b/2
// they are all at or below it. Only an even b with c = b/2 exactly has one
// central lane on each side, and then the two are the largest lane at or
// below the threshold and the smallest above it: their mean decides.
//
// A lane is |q−s| as an integer key — the difference with its sign bit
// cleared, which orders as the float does — so the count is a borrow bit,
// not a branch. A NaN lane is evidence of nothing and counts as a zero
// difference: its key sorts above every threshold, so "above" is
// thr < key ≤ +Inf, one wrapping subtraction and one borrow. A threshold
// that is not finite tests nothing. keys holds len(q) words of scratch.
func countScreen(q, sk []float64, checkpoints []int, thr []float64, keys []uint64) (int32, bool) {
	prev := 0
	for j, b := range checkpoints {
		for l := prev; l < b; l++ {
			keys[l] = math.Float64bits(q[l]-sk[l]) &^ signBit
		}
		prev = b
		t := thr[j]
		if !(t <= math.MaxFloat64) {
			continue
		}
		tb := math.Float64bits(t) // t ≥ 0: thresholds are products of non-negatives
		var above uint64
		for _, key := range keys[:b] {
			_, in := bits.Sub64(key-tb-1, infBits-tb, 0) // 1 iff tb < key ≤ infBits
			above += in
		}
		if c := int(above); c > b/2 {
			return int32(b), true
		} else if c < b/2 || b%2 == 1 {
			continue
		}
		var lo, hi uint64 = 0, infBits
		for _, key := range keys[:b] {
			switch {
			case key <= tb:
				lo = max(lo, key)
			case key <= infBits:
				hi = min(hi, key)
			}
		}
		if (math.Float64frombits(lo)+math.Float64frombits(hi))/2 > t {
			return int32(b), true
		}
	}
	return int32(prev), false
}
