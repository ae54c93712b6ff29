// Cellular: the paper's motivating scenario — cluster geographic regions
// by their call-volume patterns, comparing exact and sketched k-means,
// and render the clusters as an ASCII map (Figure 5 style).
//
// Run with:
//
//	go run ./examples/cellular
package main

import (
	"fmt"
	"log"
	"time"

	tabmine "repro"
)

func main() {
	// Four stitched days from 1200 stations (zip-ordered on the y-axis).
	days := make([]*tabmine.Table, 4)
	for d := range days {
		var err error
		days[d], _, err = tabmine.GenerateCallVolume(tabmine.CallVolumeConfig{
			Stations: 1200, Days: 1, Seed: uint64(100 + d),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	tb, err := tabmine.Stitch(days...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stitched table: %d stations × %d buckets (%.1f MB)\n",
		tb.Rows(), tb.Cols(), float64(tb.Size()*8)/1e6)

	// Tiles: one day of data for groups of 75 neighboring stations
	// (the grouping of the paper's Figure 5 case study).
	const tileRows, clusters, p = 75, 12, 1.0
	tileCols := tabmine.BucketsPerDay
	grid, err := tabmine.NewGrid(tb.Rows(), tb.Cols(), tileRows, tileCols)
	if err != nil {
		log.Fatal(err)
	}
	tiles := grid.Tiles(tb)
	fmt.Printf("tiles: %d of %d cells each\n\n", len(tiles), tileRows*tileCols)

	// Exact clustering.
	lp := tabmine.MustP(p)
	t0 := time.Now()
	exact, err := tabmine.KMeans(tiles, lp.Dist, tabmine.KMeansConfig{K: clusters, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(t0)

	// Sketched clustering: sketch once, cluster in sketch space.
	sk, err := tabmine.NewSketcher(p, 255, tileRows, tileCols, 5)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	prep := time.Since(t0)
	t0 = time.Now()
	sketched, err := tabmine.KMeans(points, sk.Distance, tabmine.KMeansConfig{K: clusters, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	sketchTime := time.Since(t0)

	agree, err := tabmine.Agreement(exact.Assign, sketched.Assign, clusters)
	if err != nil {
		log.Fatal(err)
	}
	exactSpread := tabmine.Spread(tiles, exact.Assign,
		tabmine.CentroidsOf(tiles, exact.Assign, clusters), lp.Dist)
	sketchSpread := tabmine.Spread(tiles, sketched.Assign,
		tabmine.CentroidsOf(tiles, sketched.Assign, clusters), lp.Dist)
	quality, err := tabmine.Quality(exactSpread, sketchSpread)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("exact   k-means: %8v  (%d comparisons over raw %d-cell tiles)\n",
		exactTime, exact.Comparisons, tileRows*tileCols)
	fmt.Printf("sketched k-means: %8v  clustering + %v sketching (k=%d)\n",
		sketchTime, prep, sk.K())
	fmt.Printf("agreement with exact clustering: %.1f%%   quality: %.1f%%\n\n",
		100*agree, 100*quality)

	fmt.Printf("tile counts per cluster (exact):    %v\n", sizes(exact.Assign, clusters))
	fmt.Printf("tile counts per cluster (sketched): %v\n", sizes(sketched.Assign, clusters))
}

func sizes(assign []int, k int) []int {
	out := make([]int, k)
	for _, c := range assign {
		out[c]++
	}
	return out
}
