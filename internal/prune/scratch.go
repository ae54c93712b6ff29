package prune

import (
	"sync"

	"repro/internal/quantile"
)

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
}

type scratch struct {
	// Refinement: the candidates that reach it in index order, their
	// lower bounds position by position, and one slot per chunk position.
	cands  []int
	bounds []float64
	ref    []refSlot

	// Screen: a slot per candidate, the checkpoint thresholds, the
	// median estimator's selection scratch and k lane keys per worker
	// block, the L2 estimator's running sum per candidate and prefix
	// estimate per candidate and checkpoint.
	slots  []screenSlot
	thr    []float64
	sel    quantile.Scratch
	keys   []uint64
	runs   []l2Run
	prefix []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for n candidates refined chunkPos at
// a time. Grown capacity persists across uses.
func getScratch(n, chunkPos int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.cands) < n {
		sc.cands = make([]int, 0, n)
		sc.bounds = make([]float64, n)
		sc.slots = make([]screenSlot, n)
	}
	sc.cands = sc.cands[:0]
	if cap(sc.ref) < chunkPos {
		sc.ref = make([]refSlot, chunkPos)
	}
	sc.ref = sc.ref[:chunkPos]
	return sc
}

func (sc *scratch) growKeys(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	sc.keys = sc.keys[:n]
}

func (sc *scratch) growL2(n, checkpoints int) {
	if cap(sc.runs) < n {
		sc.runs = make([]l2Run, n)
	}
	sc.runs = sc.runs[:n]
	if cap(sc.prefix) < n*checkpoints {
		sc.prefix = make([]float64, n*checkpoints)
	}
	sc.prefix = sc.prefix[:n*checkpoints]
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }
