// Fractionalp: the paper's "p as a slider" result — on data contaminated
// with outliers, clustering with fractional p ∈ (0, 1) recovers the true
// structure that classical L1/L2 distances miss, because small p damps
// each outlier's contribution to the distance.
//
// Run with:
//
//	go run ./examples/fractionalp
package main

import (
	"fmt"
	"log"

	tabmine "repro"
)

func main() {
	// The six-region planted dataset of Section 4.2: horizontal bands
	// covering 1/4, 1/4, 1/4, 1/8, 1/16, 1/16 of the table, uniform
	// values around six distinct means, 1% outliers big enough that one
	// of them dominates a tile-pair L2 distance.
	data, err := tabmine.GenerateSixRegions(tabmine.SixRegionsConfig{
		Rows: 256, Cols: 128, Seed: 3,
		OutlierFrac: 0.01, OutlierMag: 300_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	const tileEdge, clusters = 16, 6
	grid, err := tabmine.NewGrid(256, 128, tileEdge, tileEdge)
	if err != nil {
		log.Fatal(err)
	}
	tiles := grid.Tiles(data.Table)
	fmt.Printf("planted dataset: %d tiles in %d regions (means %.0f..%.0f), 1%% outliers up to %.0f\n\n",
		len(tiles), clusters, data.Means[0], data.Means[5], 300_000.0)

	// Ground truth per tile.
	truth := make([]int, len(tiles))
	for i := range truth {
		r := grid.Rect(i)
		truth[i] = data.RegionOfRow(r.R0)
	}

	fmt.Println("  p     accuracy   (clustering with sketched Lp distances, best of 5 restarts)")
	for _, p := range []float64{0.02, 0.25, 0.5, 1.0, 1.5, 2.0} {
		sk, err := tabmine.NewSketcher(p, 256, tileEdge, tileEdge, 17)
		if err != nil {
			log.Fatal(err)
		}
		points := make([][]float64, len(tiles))
		for i, tile := range tiles {
			points[i] = sk.Sketch(tile, nil)
		}
		lp := tabmine.MustP(p)
		bestSpread, bestAcc := -1.0, 0.0
		for restart := 0; restart < 5; restart++ {
			res, err := tabmine.KMeans(points, sk.Distance,
				tabmine.KMeansConfig{K: clusters, Seed: uint64(restart)})
			if err != nil {
				log.Fatal(err)
			}
			// Select by exact spread (the k-means objective), never by
			// looking at the ground truth.
			spread := tabmine.Spread(tiles, res.Assign,
				tabmine.CentroidsOf(tiles, res.Assign, clusters), lp.Dist)
			if bestSpread < 0 || spread < bestSpread {
				acc, err := tabmine.Agreement(truth, res.Assign, clusters)
				if err != nil {
					log.Fatal(err)
				}
				bestSpread, bestAcc = spread, acc
			}
		}
		bar := ""
		for i := 0; i < int(bestAcc*40); i++ {
			bar += "█"
		}
		fmt.Printf("  %-5.2f %6.1f%%   %s\n", p, 100*bestAcc, bar)
	}
	fmt.Println("\nsmall p damps outliers (but p→0 degenerates to Hamming distance);")
	fmt.Println("large p lets single outliers dominate: the sweet spot is fractional.")
}
