package core

import (
	"fmt"

	"repro/internal/table"
)

// Cache implements the "sketch on demand" scenario of Section 4.4: no
// sketches exist in advance; the first time a tile participates in a
// comparison its sketch is computed directly (k dot products over the
// tile, cost O(k·M)) and memoized, so every later comparison involving
// that tile costs only O(k). The paper shows this still beats exact
// computation 3–5× inside clustering, because each tile is compared many
// times.
//
// Cache is not safe for concurrent use; clustering drives it from a
// single goroutine.
type Cache struct {
	sk           *Sketcher
	t            *table.Table
	sketches     map[table.Rect][]float64
	hits, misses int
}

// NewCache wraps table t with on-demand sketching by sk. All queried
// rectangles must match the sketcher's tile size.
func NewCache(t *table.Table, sk *Sketcher) *Cache {
	return &Cache{
		sk:       sk,
		t:        t,
		sketches: make(map[table.Rect][]float64),
	}
}

// SketchOf returns the (memoized) sketch of rect. The returned slice is
// owned by the cache; callers must not modify it.
func (c *Cache) SketchOf(rect table.Rect) []float64 {
	if s, ok := c.sketches[rect]; ok {
		c.hits++
		return s
	}
	if rect.Rows != c.sk.Rows() || rect.Cols != c.sk.Cols() {
		panic(fmt.Sprintf("core: cache rect %v does not match sketcher tile %dx%d",
			rect, c.sk.Rows(), c.sk.Cols()))
	}
	c.misses++
	vec := c.t.Linearize(rect, nil)
	s := c.sk.Sketch(vec, nil)
	c.sketches[rect] = s
	return s
}

// Distance estimates the Lp distance between two tiles, sketching either
// on first use.
func (c *Cache) Distance(a, b table.Rect) float64 {
	sa := c.SketchOf(a)
	sb := c.SketchOf(b)
	return c.sk.Distance(sa, sb)
}

// Stats reports memoization effectiveness: hits (sketch reused) and
// misses (sketch computed).
func (c *Cache) Stats() (hits, misses int) { return c.hits, c.misses }

// Len returns how many sketches are currently memoized.
func (c *Cache) Len() int { return len(c.sketches) }
