package tabmine_test

import (
	"fmt"
	"log"
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

// Quickstart: estimate Lp distances between subtables with stable
// sketches and compare against exact computation.
func Example_quickstart() {
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
	// Output:
	// table: 96 stations × 144 buckets
	// p=0.5  exact 160648494.37   sketched 180960164.80   (k=923, ratio 1.126)
	// p=1.0  exact    261302.65   sketched    261669.21   (k=923, ratio 1.001)
	// p=2.0  exact     13608.42   sketched     13399.22   (k=923, ratio 0.985)
	//
	// sketch-on-demand cache (each tile sketched once, reused forever):
	//   d([0:16,30:94], [48:64,30:94]) ≈ 248692.23
	//   d([0:16,30:94], [32:48,30:94]) ≈ 990360.41
	//   d([48:64,30:94], [32:48,30:94]) ≈ 790751.27
	//   cache: 3 sketch computations, 3 reuses
}

// Netflow: the paper's second motivating scenario — a table of traffic
// volumes indexed by destination IP block (rows) and time (columns), as a
// router would dump it. A dyadic sketch Pool answers "how similar are
// these two (subnet × time-window) regions?" for arbitrary rectangles in
// O(k), which this example uses to find the pair of days with the most
// similar traffic pattern for each subnet block.
func Example_netflow() {
	const (
		hosts         = 128
		daysTotal     = 8
		bucketsPerDay = 96
		p             = 1.0 // L1: total traffic discrepancy in bytes
		sketchK       = 128
	)
	tb, err := tabmine.GenerateTraffic(tabmine.TrafficConfig{
		Hosts: hosts, Days: daysTotal, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic table: %d hosts × %d buckets (%d days)\n",
		tb.Rows(), tb.Cols(), daysTotal)

	// One pool answers distance queries for ANY rectangle whose extents
	// fall within [2, 2·max dyadic]: block×day windows, block×week
	// windows, sub-blocks, and so on (Theorems 5–6).
	pool, err := tabmine.NewPool(tb, p, sketchK, 9, tabmine.PoolOptions{
		MinLogRows: 2, MaxLogRows: 4, // tile heights 4..16 rows
		MinLogCols: 4, MaxLogCols: 6, // tile widths 16..64 buckets
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool: %d dyadic sizes, k=%d sketch entries\n\n", pool.NumSizes(), sketchK)

	// For each 16-host block: which two days have the most similar
	// traffic? Day windows are 96 buckets wide — not a power of two, so
	// every query below uses compound sketches.
	fmt.Println("most similar pair of days per host block (compound sketches):")
	for block := 0; block < hosts/16; block++ {
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		for d1 := 0; d1 < daysTotal; d1++ {
			for d2 := d1 + 1; d2 < daysTotal; d2++ {
				a := tabmine.Rect{R0: block * 16, C0: d1 * bucketsPerDay, Rows: 16, Cols: bucketsPerDay}
				b := tabmine.Rect{R0: block * 16, C0: d2 * bucketsPerDay, Rows: 16, Cols: bucketsPerDay}
				d, err := pool.Distance(a, b)
				if err != nil {
					log.Fatal(err)
				}
				if d < bestD {
					bestA, bestB, bestD = d1, d2, d
				}
			}
		}
		// Verify the winner against the exact distance.
		a := tabmine.Rect{R0: block * 16, C0: bestA * bucketsPerDay, Rows: 16, Cols: bucketsPerDay}
		b := tabmine.Rect{R0: block * 16, C0: bestB * bucketsPerDay, Rows: 16, Cols: bucketsPerDay}
		exact := tabmine.MustP(p).Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
		fmt.Printf("  block %2d: days %d and %d  (sketched %.0f, exact %.0f)\n",
			block, bestA, bestB, bestD, exact)
	}

	// Arbitrary-rectangle query: compare the first half-week against the
	// second half-week for the whole address space at once.
	firstHalf := tabmine.Rect{R0: 0, C0: 0, Rows: hosts, Cols: daysTotal / 2 * bucketsPerDay}
	secondHalf := tabmine.Rect{R0: 0, C0: daysTotal / 2 * bucketsPerDay, Rows: hosts, Cols: daysTotal / 2 * bucketsPerDay}
	if err := pool.CanSketch(firstHalf); err != nil {
		fmt.Printf("\nwhole-table window query outside pool's dyadic range (expected): %v\n", err)
	} else {
		d, _ := pool.Distance(firstHalf, secondHalf)
		fmt.Printf("\nfirst vs second half-week distance: %.0f\n", d)
	}
	// Output:
	// traffic table: 128 hosts × 768 buckets (8 days)
	// pool: 9 dyadic sizes, k=128 sketch entries
	//
	// most similar pair of days per host block (compound sketches):
	//   block  0: days 4 and 5  (sketched 111568, exact 41871)
	//   block  1: days 1 and 6  (sketched 129792, exact 45224)
	//   block  2: days 1 and 4  (sketched 104920, exact 36050)
	//   block  3: days 0 and 2  (sketched 99456, exact 43186)
	//   block  4: days 0 and 3  (sketched 86208, exact 37993)
	//   block  5: days 2 and 3  (sketched 92128, exact 47508)
	//   block  6: days 4 and 6  (sketched 100192, exact 49111)
	//   block  7: days 6 and 7  (sketched 98256, exact 42861)
	//
	// whole-table window query outside pool's dyadic range (expected): core: extent 128 exceeds twice the largest pooled dyadic size 16
}

// Fractionalp: the paper's "p as a slider" result — on data contaminated
// with outliers, clustering with fractional p ∈ (0, 1) recovers the true
// structure that classical L1/L2 distances miss, because small p damps
// each outlier's contribution to the distance.
func Example_fractionalp() {
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
	// Output:
	// planted dataset: 128 tiles in 6 regions (means 10000..30000), 1% outliers up to 300000
	//
	//   p     accuracy   (clustering with sketched Lp distances, best of 5 restarts)
	//   0.02    98.4%   ███████████████████████████████████████
	//   0.25   100.0%   ████████████████████████████████████████
	//   0.50   100.0%   ████████████████████████████████████████
	//   1.00    93.0%   █████████████████████████████████████
	//   1.50    67.2%   ██████████████████████████
	//   2.00    40.6%   ████████████████
	//
	// small p damps outliers (but p→0 degenerates to Hamming distance);
	// large p lets single outliers dominate: the sweet spot is fractional.
}

// Cellular: the paper's motivating scenario — cluster geographic regions
// by their call-volume patterns, comparing exact and sketched k-means
// (Figure 5 style).
func Example_cellular() {
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
	exact, err := tabmine.KMeans(tiles, lp.Dist, tabmine.KMeansConfig{K: clusters, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Sketched clustering: sketch once, cluster in sketch space.
	sk, err := tabmine.NewSketcher(p, 255, tileRows, tileCols, 5)
	if err != nil {
		log.Fatal(err)
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	sketched, err := tabmine.KMeans(points, sk.Distance, tabmine.KMeansConfig{K: clusters, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

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

	fmt.Printf("exact   k-means: (%d comparisons over raw %d-cell tiles)\n",
		exact.Comparisons, tileRows*tileCols)
	fmt.Printf("sketched k-means: clustering + sketching (k=%d)\n", sk.K())
	fmt.Printf("agreement with exact clustering: %.1f%%   quality: %.1f%%\n\n",
		100*agree, 100*quality)

	fmt.Printf("tile counts per cluster (exact):    %v\n", clusterSizes(exact.Assign, clusters))
	fmt.Printf("tile counts per cluster (sketched): %v\n", clusterSizes(sketched.Assign, clusters))
	// Output:
	// stitched table: 1200 stations × 576 buckets (5.5 MB)
	// tiles: 64 of 10800 cells each
	//
	// exact   k-means: (3072 comparisons over raw 10800-cell tiles)
	// sketched k-means: clustering + sketching (k=255)
	// agreement with exact clustering: 92.2%   quality: 102.2%
	//
	// tile counts per cluster (exact):    [4 6 5 1 7 15 6 2 6 5 3 4]
	// tile counts per cluster (sketched): [5 7 5 1 7 13 5 3 6 6 3 3]
}

// clusterSizes counts the tiles assigned to each of k clusters.
func clusterSizes(assign []int, k int) []int {
	out := make([]int, k)
	for _, c := range assign {
		out[c]++
	}
	return out
}
