// Package quantile provides selection-based order statistics used by the
// sketch estimators: k-th smallest element, medians, and simple quantiles.
//
// The sketch distance estimator of the paper takes the median of k absolute
// sketch differences for every distance query, so median selection is on the
// hot path of every sketched comparison. Every entry point runs on one
// kernel: values become unsigned integer keys that order as the floats do,
// and selection partitions the keys out of place without a data-dependent
// branch (selectRanks). An argmin over sketches does not need most of its
// medians at all — FirstBelow answers "is the median below the best so
// far" by counting lanes until the count decides it, over a run of
// candidates, and the argmin selects only the median of the row it stops
// at.
//
// Input must be NaN-free (order statistics are undefined under a partial
// order); ±Inf order correctly.
//
// The two kernels of the sketch tier — the count (firstBelow) and the
// median of absolute differences (absMedianKeys) — have two encodings:
// the Go bodies, which are the reference and the only path off amd64,
// and AVX2 assembly (kernel_amd64.s), chosen once at start-up from the
// CPU probe (cpu.AVX2). The assembly makes the Go body's subtractions
// and compares the keys in their integer order, so every decision and
// every selected key is the Go body's (TestAVX2KernelsMatchGo).
package quantile

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpu"
)

const signBit = 1 << 63

// Scratch is the working memory of one selection: the keys of the input and
// the buffer they are partitioned into. It is owned by the caller so hot
// paths allocate nothing, and holds no state between calls.
type Scratch []uint64

// NewScratch returns scratch for selections over up to n values.
func NewScratch(n int) Scratch { return make(Scratch, 2*n) }

// Grow returns s if it serves selections over n values, and new scratch that
// does otherwise.
func (s Scratch) Grow(n int) Scratch {
	if len(s) >= 2*n {
		return s
	}
	return NewScratch(n)
}

// split carves the key array and the partition buffer for n values.
func (s Scratch) split(n int) (keys, buf []uint64) {
	if len(s) < 2*n {
		panic(fmt.Sprintf("quantile: scratch of %d words for %d values, need %d", len(s), n, 2*n))
	}
	return s[:n], s[n : 2*n]
}

// key maps v to an integer that compares, unsigned, as v compares among
// floats: negatives have every bit flipped (larger magnitude, smaller key),
// the rest only the sign bit (so they sort above every negative).
func key(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | signBit)
}

// unkey inverts key.
func unkey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(^int64(k)>>63) | signBit))
}

// fillKeys writes key(data[i]) to keys.
func fillKeys(keys []uint64, data []float64) {
	for i, v := range data {
		keys[i] = key(v)
	}
}

// tailLen is the length at and below which selectRanks stops partitioning
// and sorts what is left.
const tailLen = 8

// selectRanks returns the j-th and k-th smallest (0-indexed) of src, where
// j is k or k−1: one order statistic, or the two central ones of an even
// count. buf has at least len(src) words; src and buf are both overwritten.
//
// Each round partitions the live range around a median-of-three pivot into
// the other buffer: every element is stored at both the low and the high
// cursor of the destination, and the comparison bit (the borrow of v − pivot)
// decides which cursor advances, so the loop has no branch to mispredict.
// The store at the cursor that did not advance is overwritten by the next
// element. The side holding the ranks becomes the next round's source; if
// the boundary falls between them, they are the maximum of the left side and
// the minimum of the right.
func selectRanks(src []uint64, j, k int, buf []uint64) (uint64, uint64) {
	for len(src) > tailLen {
		n := len(src)
		x, y, z := src[0], src[n/2], src[n-1]
		pivot := max(min(x, y), min(max(x, y), z))
		dst := buf[:n]
		lo, hi := 0, n-1
		for _, v := range src {
			dst[lo], dst[hi] = v, v
			_, lt := bits.Sub64(v, pivot, 0)
			lo += int(lt)
			hi += int(lt) - 1
		}
		// dst[:lo] < pivot ≤ dst[lo:], and the pivot itself is on the right.
		if lo == 0 {
			// The pivot is the minimum, so the right side is everything and
			// taking it would not shrink the range. Split off the pivot's
			// duplicates instead: dst[:lo] = pivot < dst[lo:].
			hi = n - 1
			for _, v := range src {
				dst[lo], dst[hi] = v, v
				_, gt := bits.Sub64(pivot, v, 0)
				lo += 1 - int(gt)
				hi -= int(gt)
			}
			if k < lo {
				return pivot, pivot
			}
		}
		switch {
		case k < lo:
			src, buf = dst[:lo], src
		case j >= lo:
			src, buf, j, k = dst[lo:], src, j-lo, k-lo
		default:
			below, above := uint64(0), ^uint64(0)
			for _, v := range dst[:lo] {
				below = max(below, v)
			}
			for _, v := range dst[lo:] {
				above = min(above, v)
			}
			return below, above
		}
	}
	dst := buf[:len(src)]
	for i, v := range src {
		m := i
		for ; m > 0 && dst[m-1] > v; m-- {
			dst[m] = dst[m-1]
		}
		dst[m] = v
	}
	return dst[j], dst[k]
}

// medianKeys returns the two central keys (the same one twice for an odd
// count).
func medianKeys(keys, buf []uint64) (lo, hi uint64) {
	n := len(keys)
	return selectRanks(keys, (n-1)/2, n/2, buf)
}

// Select returns the k-th smallest element (0-indexed) of data, which it
// does not modify. It panics if data is empty or k is out of range, since
// callers control both and an out-of-range k is a bug.
func Select(data []float64, k int, s Scratch) float64 {
	if len(data) == 0 {
		panic("quantile: Select on empty slice")
	}
	if k < 0 || k >= len(data) {
		panic(fmt.Sprintf("quantile: Select index %d out of range [0,%d)", k, len(data)))
	}
	keys, buf := s.split(len(data))
	fillKeys(keys, data)
	_, v := selectRanks(keys, k, k, buf)
	return unkey(v)
}

// Median returns the median of data, which it does not modify.
// For even-length input it returns the mean of the two central elements,
// which keeps the estimator unbiased for symmetric distributions.
// It panics on empty input.
func Median(data []float64, s Scratch) float64 {
	n := len(data)
	if n == 0 {
		panic("quantile: Median of empty slice")
	}
	keys, buf := s.split(n)
	fillKeys(keys, data)
	lo, hi := medianKeys(keys, buf)
	if n%2 == 1 {
		return unkey(hi)
	}
	return (unkey(lo) + unkey(hi)) / 2
}

// MedianCopy is Median with scratch of its own.
func MedianCopy(data []float64) float64 {
	return Median(data, NewScratch(len(data)))
}

// Quantile returns the q-quantile of data for q in [0,1], without modifying
// data. It uses the nearest-rank method with linear interpolation between
// adjacent order statistics, matching the behaviour of common statistics
// packages (type-7 quantiles).
// It panics on empty input or q outside [0,1].
func Quantile(data []float64, q float64, s Scratch) float64 {
	n := len(data)
	if n == 0 {
		panic("quantile: Quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("quantile: q=%v outside [0,1]", q))
	}
	pos := q * float64(n-1)
	rank := int(math.Floor(pos))
	frac := pos - float64(rank)
	keys, buf := s.split(n)
	fillKeys(keys, data)
	if frac == 0 {
		_, v := selectRanks(keys, rank, rank, buf)
		return unkey(v)
	}
	lo, hi := selectRanks(keys, rank, rank+1, buf)
	v := unkey(lo)
	return v + frac*(unkey(hi)-v)
}

// absDiffKey is the key of |x−y|. A non-negative double orders as its bit
// pattern, so the key is the difference with its sign bit cleared: no
// math.Abs and no float compare.
func absDiffKey(x, y float64) uint64 { return math.Float64bits(x-y) &^ signBit }

// absDiffKeys writes the key of |a[i]−b[i]| to keys.
func absDiffKeys(keys []uint64, a, b []float64) {
	b = b[:len(a)]
	keys = keys[:len(a)]
	for i, x := range a {
		keys[i] = absDiffKey(x, b[i])
	}
}

// notBelow is 1 if key k is at or above key bound, else 0.
func notBelow(k, bound uint64) uint64 {
	_, lt := bits.Sub64(k, bound, 0)
	return 1 - lt
}

// countBlock is how many lanes the count reads between checks.
const countBlock = 8

// decidedNotBelow reports whether at least need of the |a[i]−b[i]| are at
// or above the key bound, counting countBlock lanes at a time and stopping
// at the first block that settles it.
func decidedNotBelow(a, b []float64, bound uint64, need int) bool {
	b = b[:len(a)]
	var above uint64
	i := 0
	for ; i+countBlock <= len(a); i += countBlock {
		// Written out: the compiler does not unroll, and the block as a
		// loop costs a third more on the rejection path.
		x, y := a[i:i+countBlock:i+countBlock], b[i:i+countBlock:i+countBlock]
		above += notBelow(absDiffKey(x[0], y[0]), bound) + notBelow(absDiffKey(x[1], y[1]), bound) +
			notBelow(absDiffKey(x[2], y[2]), bound) + notBelow(absDiffKey(x[3], y[3]), bound) +
			notBelow(absDiffKey(x[4], y[4]), bound) + notBelow(absDiffKey(x[5], y[5]), bound) +
			notBelow(absDiffKey(x[6], y[6]), bound) + notBelow(absDiffKey(x[7], y[7]), bound)
		if above >= uint64(need) {
			return true
		}
	}
	for ; i < len(a); i++ {
		above += notBelow(absDiffKey(a[i], b[i]), bound)
	}
	return above >= uint64(need)
}

// firstBelowGo is the Go body of firstBelow.
func firstBelowGo(q, rows []float64, bound uint64, need int) int {
	k, r := len(q), 0
	for ; (r+1)*k <= len(rows); r++ {
		if !decidedNotBelow(q, rows[r*k:(r+1)*k], bound, need) {
			break
		}
	}
	return r
}

// firstBelow is the count over a run of rows of len(q) lanes stored back
// to back: the first row r for which decidedNotBelow(q, row r, bound,
// need) is false, or the number of rows if there is none. One call
// rejects a whole run of candidates.
func firstBelow(q, rows []float64, bound uint64, need int) int {
	if cpu.AVX2 {
		return firstBelowAVX2Run(q, rows, bound, need)
	}
	return firstBelowGo(q, rows, bound, need)
}

// medianLanes is the lane count whose median the AVX2 encoding selects
// in registers; every other count selects in Go.
const medianLanes = 64

// absMedianKeys returns the two central keys of the |a[i]−b[i]| (the
// same one twice for an odd count). keys and buf are len(a) words of
// scratch.
func absMedianKeys(a, b []float64, keys, buf []uint64) (lo, hi uint64) {
	if cpu.AVX2 && len(a) == medianLanes {
		if lo, hi, ok := absMedianAVX2(a, b); ok {
			return lo, hi
		}
	}
	absDiffKeys(keys, a, b)
	return medianKeys(keys, buf)
}

// absMedian is the median of n non-negative values whose two central
// keys are lo and hi: such a value's key is its bits.
func absMedian(lo, hi uint64, n int) float64 {
	if n%2 == 1 {
		return math.Float64frombits(hi)
	}
	return (math.Float64frombits(lo) + math.Float64frombits(hi)) / 2
}

// AbsMedianDiff returns the median of |a[i]-b[i]|. This is the inner loop of
// the paper's sketch distance estimator (Theorem 1/2): given two sketch
// vectors, the estimate is the median of component-wise absolute
// differences. It panics if the lengths disagree or are zero.
func AbsMedianDiff(a, b []float64, s Scratch) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic(fmt.Sprintf("quantile: AbsMedianDiff of %d and %d values", len(a), len(b)))
	}
	keys, buf := s.split(len(a))
	lo, hi := absMedianKeys(a, b, keys, buf)
	return absMedian(lo, hi, len(a))
}

// belowNeed is how many of n lanes at or above a bound prove the median
// is not below it (see FirstBelow).
func belowNeed(n int) int { return n - (n-1)/2 }

// FirstBelow is the count an argmin over sketches runs before it selects,
// over the len(rows)/len(q) rows of len(q) lanes stored back to back in
// rows: the index of the first row whose median |q[i]−row[i]| the count
// cannot prove is at or above bound ≥ 0, or the number of rows if the
// count rejects them all. The caller selects that row's median with
// AbsMedianDiff and compares it; an argmin scan calls FirstBelow once per
// selection, not once per candidate. It panics if q is empty or rows is
// not whole rows.
//
// The proof: let c = #{i : |q[i]−row[i]| < bound} over n lanes. If
// c ≤ (n−1)/2 (integer division: n/2 − 1 for even n), then the order
// statistic of rank (n−1)/2 and every one above it is ≥ bound. That is the
// median for odd n and both central elements for even n, whose mean
// (lo + hi)/2 is then ≥ bound in floating point too, because rounding
// addition and halving are monotone.
//
// c ≤ (n−1)/2 is n − (n−1)/2 lanes at or above bound, and a count only
// grows, so the kernel stops at the first block of lanes that reaches it:
// 33 of 64 lanes is the least any exact rejection of a row can read.
func FirstBelow(q, rows []float64, bound float64) int {
	if len(q) == 0 || len(rows)%len(q) != 0 {
		panic(fmt.Sprintf("quantile: FirstBelow over %d lanes in rows of %d", len(rows), len(q)))
	}
	return firstBelow(q, rows, math.Float64bits(bound), belowNeed(len(q)))
}
