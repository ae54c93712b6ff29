// Quickstart: estimate Lp distances between subtables with stable
// sketches and compare against exact computation.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	tabmine "repro"
)

func main() {
	// A synthetic day of call volumes: 96 stations × 144 ten-minute
	// buckets (see DESIGN.md — this substitutes for the paper's AT&T
	// dataset).
	tb, _, err := tabmine.GenerateCallVolume(tabmine.CallVolumeConfig{
		Stations: 96, Days: 1, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table: %d stations × %d buckets\n", tb.Rows(), tb.Cols())

	// Two 16×64 subtables: stations 0–15 vs stations 48–63, morning hours.
	a := tabmine.Rect{R0: 0, C0: 30, Rows: 16, Cols: 64}
	b := tabmine.Rect{R0: 48, C0: 30, Rows: 16, Cols: 64}

	for _, p := range []float64{0.5, 1, 2} {
		lp := tabmine.MustP(p)
		exact := lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))

		// Sketch size for ±10% accuracy with 99% confidence (Theorem 1).
		k, err := tabmine.KForAccuracy(0.1, 0.01)
		if err != nil {
			log.Fatal(err)
		}
		sk, err := tabmine.NewSketcher(p, k, a.Rows, a.Cols, 7)
		if err != nil {
			log.Fatal(err)
		}
		sa := sk.Sketch(tb.Linearize(a, nil), nil)
		sb := sk.Sketch(tb.Linearize(b, nil), nil)
		est := sk.Distance(sa, sb)
		fmt.Printf("p=%.1f  exact %12.2f   sketched %12.2f   (k=%d, ratio %.3f)\n",
			p, exact, est, k, est/exact)
	}

	// The sketch is tiny compared to the tiles it stands for: comparing
	// two 16×64 tiles exactly reads 2×1024 values; comparing sketches
	// reads 2×k values no matter how big the tiles get.
	fmt.Println("\nsketch-on-demand cache (each tile sketched once, reused forever):")
	sk, err := tabmine.NewSketcher(1, 256, 16, 64, 7)
	if err != nil {
		log.Fatal(err)
	}
	cache := tabmine.NewCache(tb, sk)
	rects := []tabmine.Rect{a, b, {R0: 32, C0: 30, Rows: 16, Cols: 64}}
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			fmt.Printf("  d(%v, %v) ≈ %.2f\n", rects[i], rects[j], cache.Distance(rects[i], rects[j]))
		}
	}
	hits, misses := cache.Stats()
	fmt.Printf("  cache: %d sketch computations, %d reuses\n", misses, hits)
}
