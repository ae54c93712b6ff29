package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/table"
)

func TestCacheMemoizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tb := randTable(rng, 16, 16)
	sk, _ := NewSketcher(1, 9, 4, 4, 61)
	c := NewCache(tb, sk)
	a := table.Rect{R0: 0, C0: 0, Rows: 4, Cols: 4}
	b := table.Rect{R0: 8, C0: 8, Rows: 4, Cols: 4}

	s1 := c.SketchOf(a)
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("after first sketch: hits %d misses %d", hits, misses)
	}
	s2 := c.SketchOf(a)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after repeat: hits %d misses %d", hits, misses)
	}
	if &s1[0] != &s2[0] {
		t.Error("memoized sketch is not the same slice")
	}
	_ = c.Distance(a, b)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheDistanceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	tb := randTable(rng, 16, 16)
	sk, _ := NewSketcher(2, 33, 4, 4, 67)
	c := NewCache(tb, sk)
	a := table.Rect{R0: 1, C0: 2, Rows: 4, Cols: 4}
	b := table.Rect{R0: 9, C0: 5, Rows: 4, Cols: 4}
	got := c.Distance(a, b)
	want := sk.Distance(
		sk.Sketch(tb.Linearize(a, nil), nil),
		sk.Sketch(tb.Linearize(b, nil), nil))
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("cache distance %v vs direct %v", got, want)
	}
}

func TestCachePanicsWrongTileSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	tb := randTable(rng, 16, 16)
	sk, _ := NewSketcher(1, 5, 4, 4, 71)
	c := NewCache(tb, sk)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched rect size")
		}
	}()
	c.SketchOf(table.Rect{Rows: 3, Cols: 4})
}
