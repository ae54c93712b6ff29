// Command tabmine-cluster runs k-means over the tiles of a table file
// under exact or sketched Lp distances and reports the clustering, its
// spread, timings, and (optionally) an ASCII cluster map in the style of
// the paper's Figure 5.
//
// Example:
//
//	tabmine-gendata -kind callvolume -stations 600 -days 1 -o day.tabf
//	tabmine-cluster -in day.tabf -tile-rows 75 -tile-cols 6 \
//	    -clusters 10 -p 0.25 -mode precomputed -map
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lpnorm"
	"repro/internal/runctx"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/vizascii"
)

func main() {
	var (
		in       = flag.String("in", "", "input table file (required)")
		tileRows = flag.Int("tile-rows", 16, "tile height in table rows")
		tileCols = flag.Int("tile-cols", 144, "tile width in table columns")
		clusters = flag.Int("clusters", 20, "number of k-means clusters")
		p        = flag.Float64("p", 1, "Lp exponent in (0, 2]")
		mode     = flag.String("mode", "precomputed", "distance mode: exact | precomputed | ondemand")
		sketchK  = flag.Int("k", 256, "sketch entries (sketch modes)")
		seed     = flag.Uint64("seed", 42, "seed for sketches and k-means init")
		showMap  = flag.Bool("map", false, "render the ASCII cluster map (largest cluster blank)")
		hoursPer = flag.Float64("hours-per-col", 0, "label map columns as hours with this span (0 = no ruler)")
		pngOut   = flag.String("png", "", "also write the cluster map as a PNG to this path")
		pngCell  = flag.Int("png-cell", 12, "pixels per tile in the PNG map")
		workers  = flag.Int("workers", 0, "worker goroutines for sketching and clustering (0 = all cores)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	)
	flag.Parse()
	ctx, stop := runctx.WithSignals(*timeout)
	defer stop()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "tabmine-cluster: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	tb, err := tabfile.ReadFile(*in)
	fatal(err)
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), *tileRows, *tileCols)
	fatal(err)
	tiles := grid.Tiles(tb)
	fmt.Printf("table %dx%d → %d tiles of %dx%d (%d bytes each)\n",
		tb.Rows(), tb.Cols(), len(tiles), *tileRows, *tileCols, *tileRows**tileCols*8)

	lp, err := lpnorm.NewP(*p)
	fatal(err)

	var (
		points [][]float64
		dist   cluster.DistFunc
		prep   time.Duration
	)
	switch *mode {
	case "exact":
		points, dist = tiles, lp.Dist
	case "precomputed", "ondemand":
		sk, err := core.NewSketcher(*p, *sketchK, *tileRows, *tileCols, *seed)
		fatal(err)
		sk.SetWorkers(*workers)
		t0 := time.Now()
		points = make([][]float64, len(tiles))
		for i, tile := range tiles {
			points[i] = sk.Sketch(tile, nil)
		}
		prep = time.Since(t0)
		// Distance is reentrant, which parallel k-means requires.
		dist = sk.Distance
		if *mode == "precomputed" {
			fmt.Printf("sketches precomputed in %v (k=%d)\n", prep, *sketchK)
		} else {
			fmt.Printf("sketching on demand (k=%d; %v included in total below)\n", *sketchK, prep)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	clusterWorkers := *workers
	if clusterWorkers == 0 {
		clusterWorkers = -1 // cluster.Config: negative = all cores, 0 = serial
	}
	t0 := time.Now()
	res, err := cluster.KMeans(points, dist, cluster.Config{
		K: *clusters, Seed: *seed, Workers: clusterWorkers, Context: ctx,
	})
	fatal(err)
	elapsed := time.Since(t0)
	if *mode == "ondemand" {
		elapsed += prep
	}

	// Evaluate the clustering in tile space with the exact distance so the
	// numbers are comparable across modes.
	exactSpread := cluster.Spread(tiles, res.Assign,
		cluster.CentroidsOf(tiles, res.Assign, *clusters), lp.Dist)
	fmt.Printf("k-means: %d iterations, converged=%v, %d comparisons, time %v\n",
		res.Iterations, res.Converged, res.Comparisons, elapsed)
	fmt.Printf("spread (exact L%.4g): %.4f\n", *p, exactSpread)
	sizes := cluster.Sizes(res.Assign, *clusters)
	fmt.Printf("cluster sizes: %v\n", sizes)

	if *showMap || *pngOut != "" {
		m := &vizascii.Map{
			GridRows: grid.GridRows(), GridCols: grid.GridCols(),
			K: *clusters, Assign: res.Assign,
		}
		if *showMap {
			var art string
			if *hoursPer > 0 {
				art, err = m.RenderWithHourAxis(*hoursPer, true)
			} else {
				art, err = m.Render(true)
			}
			fatal(err)
			legend, err := m.Legend(true)
			fatal(err)
			fmt.Printf("\n%s\n%s", art, legend)
		}
		if *pngOut != "" {
			f, err := os.Create(*pngOut)
			fatal(err)
			err = m.RenderPNG(f, *pngCell, true)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			fatal(err)
			fmt.Printf("wrote cluster map PNG to %s\n", *pngOut)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-cluster: %v\n", err)
		os.Exit(1)
	}
}
