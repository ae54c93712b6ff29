package tabmine_test

import (
	"fmt"
	"math"

	tabmine "repro"
)

// A sketch of a tile is a handful of dot products with p-stable random
// matrices; the median of sketch differences estimates the Lp distance.
func ExampleSketcher() {
	// Two 4×4 tiles differing in one corner cell.
	a := make([]float64, 16)
	b := make([]float64, 16)
	b[0] = 10

	sk, _ := tabmine.NewSketcher(1, 501, 4, 4, 7)
	est := sk.Distance(sk.Sketch(a, nil), sk.Sketch(b, nil))
	exact := tabmine.MustP(1).Dist(a, b)
	fmt.Printf("exact L1 distance: %v\n", exact)
	fmt.Printf("estimate within 20%%: %v\n", math.Abs(est-exact)/exact < 0.2)
	// Output:
	// exact L1 distance: 10
	// estimate within 20%: true
}

// KForAccuracy sizes sketches from the (ε, δ) guarantee of Theorem 1.
func ExampleKForAccuracy() {
	k, _ := tabmine.KForAccuracy(0.1, 0.01)
	fmt.Println(k)
	// Output:
	// 923
}

// Grids partition tables into the tiles that mining algorithms compare.
func ExampleGrid() {
	g, _ := tabmine.NewGrid(100, 288, 25, 144)
	fmt.Println(g.NumTiles(), "tiles of", g.TileRows(), "stations ×", g.TileCols(), "buckets")
	r := g.Rect(5)
	fmt.Println("tile 5 covers", r.String())
	// Output:
	// 8 tiles of 25 stations × 144 buckets
	// tile 5 covers [50:75,144:288]
}

// Agreement (Definition 10) matches cluster labels optimally before
// scoring, so permuted labelings of the same partition agree fully.
func ExampleAgreement() {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{2, 2, 0, 0, 1, 1} // same partition, shuffled labels
	agree, _ := tabmine.Agreement(a, b, 3)
	fmt.Println(agree)
	// Output:
	// 1
}

// The scaling factor B(p) is exactly 1 at p = 1 (the median of the
// absolute value of a standard Cauchy variable).
func ExampleStableMedianAbs() {
	fmt.Println(tabmine.StableMedianAbs(1))
	// Output:
	// 1
}

// Hamming distance is the p → 0 limit of the Lp power sum.
func ExampleHamming() {
	fmt.Println(tabmine.Hamming([]float64{1, 2, 3}, []float64{1, 5, 3}))
	// Output:
	// 1
}

// Pools answer arbitrary-rectangle queries: exact sketches at dyadic
// sizes, compound sketches elsewhere.
func ExamplePool() {
	tb := tabmine.NewTable(32, 32)
	pool, _ := tabmine.NewPool(tb, 1, 16, 1, tabmine.PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	fmt.Println("8x8 exact:", pool.IsExact(tabmine.Rect{Rows: 8, Cols: 8}))
	fmt.Println("11x6 exact:", pool.IsExact(tabmine.Rect{Rows: 11, Cols: 6}))
	fmt.Println("11x6 coverable:", pool.CanSketch(tabmine.Rect{Rows: 11, Cols: 6}) == nil)
	// Output:
	// 8x8 exact: true
	// 11x6 exact: false
	// 11x6 coverable: true
}

// Streams maintain sketches under point updates with no stored matrices.
func ExampleHashSketcher() {
	h, _ := tabmine.NewHashSketcher(2, 301, 1000, 3)
	s := h.NewStream()
	s.Update(42, 3)
	s.Update(999, -4)
	// The underlying vector has L2 norm 5.
	fmt.Printf("norm estimate within 20%%: %v\n", math.Abs(s.NormEstimate()-5)/5 < 0.2)
	// Output:
	// norm estimate within 20%: true
}
