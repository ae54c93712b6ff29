package prune

import "sync"

// Per-search working memory, recycled through a package sync.Pool so a
// steady-state progressive search allocates O(1) — the serving layer
// runs one search per nearest/assign query (and one per batch item).
//
// Pooling never changes an answer: every buffer is fully (re)initialized
// for the indices a search uses before that search reads it, and the
// scratch is returned only after the search has copied out its results.

// refSlot is one candidate's refinement outcome (disjoint per-chunk-
// position slot: workers never share).
type refSlot struct {
	sum       float64
	rows      int
	abandoned bool
	tookBound bool // the candidate's LowerBound was taken in this chunk
}

// scratch holds the candidates in index order, their total and lower
// bounds position by position, and one refinement slot per chunk
// position.
type scratch struct {
	cands          []int
	totals, bounds []float64
	ref            []refSlot
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for n candidates refined chunkPos at
// a time. Grown capacity persists across uses.
func getScratch(n, chunkPos int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.cands) < n {
		sc.cands = make([]int, 0, n)
		sc.totals = make([]float64, n)
		sc.bounds = make([]float64, n)
	}
	sc.cands = sc.cands[:0]
	if cap(sc.ref) < chunkPos {
		sc.ref = make([]refSlot, chunkPos)
	}
	sc.ref = sc.ref[:chunkPos]
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }
