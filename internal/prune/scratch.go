package prune

import (
	"math"
	"sort"
	"sync"

	"repro/internal/quantile"
)

// Per-search working memory, recycled through a package sync.Pool so a
// steady-state progressive search allocates O(1) — the serving layer
// runs one search per nearest/assign query (and one per batch item), and
// the screen scratch dominated its 88–93 allocs/op before pooling.
//
// Pooling never changes an answer: every buffer is fully (re)initialized
// for the indices a search uses before that search reads it, and the
// scratch is returned only after the search has copied out its results.

// refSlot is one survivor's refinement outcome (disjoint per-chunk-
// position slot: workers never share).
type refSlot struct {
	sum       float64
	rows      int
	abandoned bool
}

type scratch struct {
	slots []screenSlot

	// Per-chunk-position screen buffers: position n's lane differences
	// are flat[n*k : (n+1)*k], and sel[n] is the selection scratch for
	// their median.
	flat  []float64
	diffs [][]float64
	sel   []quantile.Scratch

	survivors []int
	ref       []refSlot

	sorter survivorSorter
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for n candidates with k-lane
// sketches and chunkPos per-chunk worker positions. All state a search
// reads is reset here; grown capacity persists across uses.
func getScratch(n, k, chunkPos int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.slots) < n {
		sc.slots = make([]screenSlot, n)
	}
	sc.slots = sc.slots[:n]
	clear(sc.slots)

	if cap(sc.flat) < chunkPos*k {
		sc.flat = make([]float64, chunkPos*k)
	}
	sc.flat = sc.flat[:chunkPos*k]
	if cap(sc.diffs) < chunkPos {
		sc.diffs = make([][]float64, chunkPos)
	}
	sc.diffs = sc.diffs[:chunkPos]
	for len(sc.sel) < chunkPos {
		sc.sel = append(sc.sel, nil)
	}
	for i := 0; i < chunkPos; i++ {
		sc.diffs[i] = sc.flat[i*k : (i+1)*k]
		sc.sel[i] = sc.sel[i].Grow(k)
	}

	if cap(sc.survivors) < n {
		sc.survivors = make([]int, 0, n)
	}
	sc.survivors = sc.survivors[:0]
	if cap(sc.ref) < min(chunkPos, n) {
		sc.ref = make([]refSlot, min(chunkPos, n))
	}
	sc.ref = sc.ref[:min(chunkPos, n)]
	return sc
}

func putScratch(sc *scratch) {
	sc.sorter = survivorSorter{} // drop aliases so the pool holds no stale views
	scratchPool.Put(sc)
}

// survivorSorter orders survivor indices by their screen estimate
// (NaN last), ties broken by candidate index — the same order the
// previous sort.Slice call produced, but through a pre-bound
// sort.Interface so the sort itself allocates nothing.
type survivorSorter struct {
	idx   []int
	slots []screenSlot
}

func (s *survivorSorter) key(i int) float64 {
	if e := s.slots[i].est; !math.IsNaN(e) {
		return e
	}
	return math.Inf(1)
}

func (s *survivorSorter) Len() int { return len(s.idx) }

func (s *survivorSorter) Less(a, b int) bool {
	ka, kb := s.key(s.idx[a]), s.key(s.idx[b])
	if ka != kb {
		return ka < kb
	}
	return s.idx[a] < s.idx[b]
}

func (s *survivorSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// sortSurvivors sorts sc.survivors in estimated-nearest-first order.
func (sc *scratch) sortSurvivors() {
	sc.sorter = survivorSorter{idx: sc.survivors, slots: sc.slots}
	sort.Sort(&sc.sorter)
}
