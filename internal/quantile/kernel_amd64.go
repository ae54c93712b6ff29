package quantile

// The assembly bodies (kernel_amd64.s). Every pointer addresses the
// first lane the call reads, and the caller has checked that the lanes
// lie in their slices.

// firstBelowAVX2 is the AVX2 encoding of firstBelowGo over nrows rows of
// k lanes; quiet is how many leading blocks of eight lanes it counts
// without checking the count.
//
//go:noescape
func firstBelowAVX2(q, rows *float64, k, nrows int, bound uint64, need, quiet int) int

// absMedian64AVX2 returns the keys of rank 31 and 32 of the 64
// |a[i] − b[i]|, and false instead if any of them is a NaN's.
//
//go:noescape
func absMedian64AVX2(a, b *float64) (lo, hi uint64, ok bool)

// firstBelowAVX2Run is firstBelow's AVX2 encoding.
func firstBelowAVX2Run(q, rows []float64, bound uint64, need int) int {
	k := len(q)
	if len(rows) < k {
		return 0
	}
	// No count reaches need within (need−1)/8 blocks, so checking it there
	// could not reject a row any sooner.
	quiet := min((need-1)/countBlock, k/countBlock)
	return firstBelowAVX2(&q[0], &rows[0], k, len(rows)/k, bound, need, quiet)
}

// absMedianAVX2 is medianKeys over the keys of |a[i] − b[i]| for
// len(a) = medianLanes, selected in registers; ok is false when a key is
// a NaN's, which the caller then selects in Go.
func absMedianAVX2(a, b []float64) (lo, hi uint64, ok bool) {
	return absMedian64AVX2(&a[:medianLanes][0], &b[:medianLanes][0])
}
