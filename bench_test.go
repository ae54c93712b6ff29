// Benchmarks regenerating the paper's tables and figures (run with
// `go test -bench=. -benchmem`). Each Benchmark maps to one experiment in
// DESIGN.md's per-experiment index; the wall-clock harnesses with the
// paper's exact protocol live in cmd/tabmine-experiments, while these
// testing.B benches isolate the primitive each figure's claim rests on.
package tabmine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/lpnorm"
	"repro/internal/quantile"
	"repro/internal/stable"
	"repro/internal/table"
	"repro/internal/transform"
	"repro/internal/workload"
)

var (
	benchTableOnce sync.Once
	benchTable     *table.Table // one synthetic day, 256 stations
)

func benchDay(b *testing.B) *table.Table {
	b.Helper()
	benchTableOnce.Do(func() {
		t, _, err := workload.CallVolume(workload.CallVolumeConfig{
			Stations: 256, Days: 2, Seed: 42,
		})
		if err != nil {
			panic(err)
		}
		benchTable = t
	})
	return benchTable
}

// BenchmarkFig2Exact measures the per-pair cost of exact Lp distance as
// tile size grows (the rising curve of Figure 2's timing panel).
func BenchmarkFig2Exact(b *testing.B) {
	tb := benchDay(b)
	for _, p := range []float64{1, 2} {
		lp := lpnorm.MustP(p)
		for _, edge := range []int{8, 16, 32, 64, 128} {
			b.Run(fmt.Sprintf("L%v/tile%dx%d", p, edge, edge), func(b *testing.B) {
				x := tb.Linearize(table.Rect{R0: 0, C0: 0, Rows: edge, Cols: edge}, nil)
				y := tb.Linearize(table.Rect{R0: 100, C0: 100, Rows: edge, Cols: edge}, nil)
				b.SetBytes(int64(2 * edge * edge * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = lp.Dist(x, y)
				}
			})
		}
	}
}

// BenchmarkFig2Sketch measures the per-pair cost of a sketched distance —
// flat in tile size (the flat curve of Figure 2's timing panel). The
// sketches are read from a precomputed plane set, as in the paper's
// "sketches precomputed" scenario.
func BenchmarkFig2Sketch(b *testing.B) {
	tb := benchDay(b)
	for _, p := range []float64{1, 2} {
		for _, edge := range []int{8, 64, 128} {
			b.Run(fmt.Sprintf("L%v/tile%dx%d", p, edge, edge), func(b *testing.B) {
				const k = 256
				sk, err := core.NewSketcher(p, k, edge, edge, 7)
				if err != nil {
					b.Fatal(err)
				}
				planes := sk.AllPositions(tb)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = planes.Distance(0, 0, 100, 100)
				}
			})
		}
	}
}

// BenchmarkFig2Preprocess measures sketch-plane construction (Figure 2's
// preprocessing curve, near-constant in tile size for fixed table size —
// Theorem 3's O(k·N log N)).
func BenchmarkFig2Preprocess(b *testing.B) {
	tb := benchDay(b)
	for _, edge := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("tile%dx%d", edge, edge), func(b *testing.B) {
			const k = 16
			sk, err := core.NewSketcher(1, k, edge, edge, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sk.AllPositions(tb)
			}
		})
	}
}

// BenchmarkTheorem3FFTvsNaive pins the Theorem 3 claim: FFT all-subtables
// sketching beats the naive O(N·M) computation once tiles are nontrivial.
func BenchmarkTheorem3FFTvsNaive(b *testing.B) {
	tb := workload.Random(128, 128, 1, 3)
	for _, edge := range []int{8, 32} {
		sk, err := core.NewSketcher(1, 4, edge, edge, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fft/tile%d", edge), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sk.AllPositions(tb)
			}
		})
		b.Run(fmt.Sprintf("naive/tile%d", edge), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sk.AllPositionsNaive(tb)
			}
		})
	}
}

// benchTiles prepares the Figure 3/4 clustering workload.
func benchTiles(b *testing.B) ([][]float64, int, int) {
	b.Helper()
	tb := benchDay(b)
	const tileRows = 16
	tileCols := workload.BucketsPerDay
	g, err := table.NewGrid(tb.Rows(), tb.Cols(), tileRows, tileCols)
	if err != nil {
		b.Fatal(err)
	}
	return g.Tiles(tb), tileRows, tileCols
}

// BenchmarkFig3aClustering times 20-means under the three distance modes
// at p = 1 (one column of Figure 3(a)).
func BenchmarkFig3aClustering(b *testing.B) {
	tiles, tileRows, tileCols := benchTiles(b)
	const clusters, sketchK = 8, 128
	lp := lpnorm.MustP(1)

	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMeans(tiles, lp.Dist, cluster.Config{K: clusters, Seed: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precomputed", func(b *testing.B) {
		sk, err := core.NewSketcher(1, sketchK, tileRows, tileCols, 5)
		if err != nil {
			b.Fatal(err)
		}
		points := make([][]float64, len(tiles))
		for i, tile := range tiles {
			points[i] = sk.Sketch(tile, nil)
		}
		dist := sk.Distance
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMeans(points, dist, cluster.Config{K: clusters, Seed: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ondemand", func(b *testing.B) {
		sk, err := core.NewSketcher(1, sketchK, tileRows, tileCols, 5)
		if err != nil {
			b.Fatal(err)
		}
		dist := sk.Distance
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			points := make([][]float64, len(tiles))
			for j, tile := range tiles {
				points[j] = sk.Sketch(tile, nil) // sketching inside the timed region
			}
			if _, err := cluster.KMeans(points, dist, cluster.Config{K: clusters, Seed: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4aVaryK times exact vs precomputed k-means as the cluster
// count grows (Figure 4(a)): exact cost rises with k, sketch cost stays
// an order of magnitude lower.
func BenchmarkFig4aVaryK(b *testing.B) {
	tiles, tileRows, tileCols := benchTiles(b)
	const sketchK = 128
	lp := lpnorm.MustP(1)
	sk, err := core.NewSketcher(1, sketchK, tileRows, tileCols, 5)
	if err != nil {
		b.Fatal(err)
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	dist := sk.Distance
	for _, k := range []int{4, 12, 24} {
		b.Run(fmt.Sprintf("exact/k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.KMeans(tiles, lp.Dist, cluster.Config{K: k, Seed: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sketch/k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.KMeans(points, dist, cluster.Config{K: k, Seed: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4bKnownClustering runs the planted-clustering recovery at
// one fractional p (the 100%-accuracy point of Figure 4(b)).
func BenchmarkFig4bKnownClustering(b *testing.B) {
	cfg := experiments.DefaultFig4bConfig()
	cfg.PValues = []float64{0.5}
	cfg.Restarts = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompoundSketch measures the O(k) arbitrary-rectangle sketch
// assembly of Theorem 6 (four adds per entry over the dyadic pool).
func BenchmarkCompoundSketch(b *testing.B) {
	tb := workload.Random(128, 128, 1, 9)
	const k = 128
	pool, err := core.NewPool(tb, 1, k, 11, core.PoolOptions{
		MinLogRows: 3, MaxLogRows: 5, MinLogCols: 3, MaxLogCols: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	rect := table.Rect{R0: 5, C0: 9, Rows: 44, Cols: 50} // non-dyadic: compound path
	dst := make([]float64, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = pool.Sketch(rect, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorL2SpecialCase is the §4.4 ablation: at p = 2 the
// sketcher's Euclidean estimator (l2) avoids the median selection the
// median estimator over the same sketches, |Δs| median / B(2), needs.
func BenchmarkEstimatorL2SpecialCase(b *testing.B) {
	const k = 256
	rng := rand.New(rand.NewPCG(1, 1))
	x := make([]float64, k)
	y := make([]float64, k)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	sk, err := core.NewSketcher(2, k, 4, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	scratch := quantile.NewScratch(k)
	scale := stable.MedianAbs(2)
	b.Run("median", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = quantile.AbsMedianDiff(x, y, scratch) / scale
		}
	})
	b.Run("l2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sk.Distance(x, y)
		}
	})
}

// BenchmarkTransformBaselines compares the per-object cost of reducing
// with the §2 baselines against stable sketching (equal coefficient
// budgets).
func BenchmarkTransformBaselines(b *testing.B) {
	const edge, coeffs = 32, 64
	tb := benchDay(b)
	vec := tb.Linearize(table.Rect{R0: 0, C0: 0, Rows: edge, Cols: edge}, nil)
	sk, err := core.NewSketcher(2, coeffs, edge, edge, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sketch", func(b *testing.B) {
		dst := make([]float64, coeffs)
		for i := 0; i < b.N; i++ {
			dst = sk.Sketch(vec, dst)
		}
	})
	for _, method := range []transform.Method{transform.DFT, transform.DCT, transform.Haar} {
		m := coeffs
		if method == transform.DFT {
			m /= 2
		}
		red, err := transform.NewReducer(method, edge*edge, m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(method.String(), func(b *testing.B) {
			dst := make([]float64, red.OutputLen())
			for i := 0; i < b.N; i++ {
				dst = red.Reduce(vec, dst)
			}
		})
	}
}

// BenchmarkStableSampling measures the cost of drawing stable variates —
// the dominant cost of Sketcher construction.
func BenchmarkStableSampling(b *testing.B) {
	for _, alpha := range []float64{0.5, 1, 1.5, 2} {
		b.Run(fmt.Sprintf("alpha%v", alpha), func(b *testing.B) {
			d, err := NewStableDist(alpha)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = d.Sample(rng)
			}
		})
	}
}

// BenchmarkStableCDF measures the analytic Fourier-inversion CDF (the
// exact-B(p) path) across the index range.
func BenchmarkStableCDF(b *testing.B) {
	for _, alpha := range []float64{0.5, 0.8, 1.5} {
		d, err := NewStableDist(alpha)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alpha%v", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.CDF(1.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStableQuantile measures B(p)-style quantile inversion.
func BenchmarkStableQuantile(b *testing.B) {
	d, err := NewStableDist(1.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Quantile(0.75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiningAlgorithms compares the per-run cost of the three
// clustering algorithms over identical sketch-space points.
func BenchmarkMiningAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	const n, dim, k = 128, 64, 6
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, dim)
		for j := range points[i] {
			points[i][j] = rng.NormFloat64()
		}
	}
	dist := lpnorm.MustP(2).Dist
	b.Run("kmeans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMeans(points, dist, cluster.Config{K: k, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmedoids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMedoids(points, dist, cluster.Config{K: k, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hierarchical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Agglomerative(points, dist, cluster.AverageLinkage); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAllPositionsParallel measures the worker fan-out over the k
// sketch matrices in all-positions preprocessing (Theorem 3). Run with
// `-cpu 1,4,8`: "serial" pins one worker as the baseline, "parallel"
// resolves Workers=0 to GOMAXPROCS, so the pair isolates the speedup at
// each core budget. Same seed on both paths — the determinism contract
// says the planes must be byte-identical regardless of worker count.
func BenchmarkAllPositionsParallel(b *testing.B) {
	tb := workload.Random(128, 128, 1, 17)
	const k, edge = 32, 16
	for name, workers := range map[string]int{"serial": 1, "parallel": 0} {
		b.Run(name, func(b *testing.B) {
			sk, err := core.NewSketcher(1, k, edge, edge, 7)
			if err != nil {
				b.Fatal(err)
			}
			sk.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sk.AllPositions(tb)
			}
		})
	}
}

// BenchmarkKMeansSketchedParallel measures the parallel point→centroid
// assignment loop over sketch-space points (the sketched clustering path
// of Figure 3 with the Workers knob on). Run with `-cpu 1,4,8`. The
// distance is Sketcher.Distance, whose pooled scratch makes it reentrant;
// results must match serial bit-for-bit.
func BenchmarkKMeansSketchedParallel(b *testing.B) {
	tiles, tileRows, tileCols := benchTiles(b)
	const clusters, sketchK = 8, 128
	sk, err := core.NewSketcher(1, sketchK, tileRows, tileCols, 5)
	if err != nil {
		b.Fatal(err)
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	for name, workers := range map[string]int{"serial": 0, "parallel": -1} {
		b.Run(name, func(b *testing.B) {
			cfg := cluster.Config{K: clusters, Seed: 5, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.KMeans(points, sk.Distance, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossCorrelate isolates the primitive everything else is
// built from: one valid-region 2D cross-correlation of a kernel against
// a table. "planned/oneshot" routes through a throwaway Plan2D (table
// spectrum rebuilt per call); "planned/shared" amortizes the table
// spectrum across calls and packs TWO kernels per op — per-correlation
// cost is half the reported ns/op. The seed's unplanned "before" row is
// archived in EXPERIMENTS.md ("Frequency-domain engine").
func BenchmarkCrossCorrelate(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	const n, m, ka, kb = 128, 128, 16, 16
	data := make([]float64, n*m)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	kernA := make([]float64, ka*kb)
	kernB := make([]float64, ka*kb)
	for i := range kernA {
		kernA[i], kernB[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	dstA := make([]float64, (n-ka+1)*(m-kb+1))
	dstB := make([]float64, len(dstA))
	b.Run("planned/oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.NewPlan2D(data, n, m).CorrelatePairValid(kernA, nil, ka, kb, dstA, 1, nil, 0)
		}
	})
	b.Run("planned/shared", func(b *testing.B) {
		plan := fft.NewPlan2D(data, n, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.CorrelatePairValid(kernA, kernB, ka, kb, dstA, 1, dstB, 1)
		}
	})
}

// BenchmarkAllPositions is Theorem 3 preprocessing on the shared-spectrum
// packed-pair engine with block write-through into the stride-k lanes.
func BenchmarkAllPositions(b *testing.B) {
	tb := workload.Random(128, 128, 1, 17)
	const k, edge = 32, 16
	sk, err := core.NewSketcher(1, k, edge, edge, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sk.AllPositions(tb)
		}
	})
}

// BenchmarkNewPool is Theorem 6 preprocessing: one forward table
// spectrum shared by all (dyadic size × subpool × matrix) jobs.
func BenchmarkNewPool(b *testing.B) {
	tb := workload.Random(64, 64, 1, 11)
	const k = 16
	opts := core.PoolOptions{
		MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4,
		Workers: 1,
	}
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewPool(tb, 1, k, 7, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalAppend is the streaming-ingestion before/after:
// extending a panel-mode pool over a 256-column table by w columns via
// Pool.Append versus rebuilding it from scratch over the grown table.
// The incremental path recomputes only the panels whose overlap-save
// slab reaches the new columns, so its cost scales with w while the
// rebuild scales with the whole window.
func BenchmarkIncrementalAppend(b *testing.B) {
	const rows, baseCols, k = 64, 256, 16
	opts := core.PoolOptions{
		MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4,
		PanelCols: 32, Workers: 1,
	}
	full := workload.Random(rows, baseCols+64, 1, 21)
	base := full.Sub(table.Rect{Rows: rows, Cols: baseCols})
	basePool, err := core.NewPool(base, 1, k, 7, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 8, 64} {
		grown := full.Sub(table.Rect{Rows: rows, Cols: baseCols + w})
		b.Run(fmt.Sprintf("append/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := basePool.Append(context.Background(), grown); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPool(grown, 1, k, 7, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolBuild measures Theorem 6's preprocessing (all dyadic
// sizes) and the parallel-construction ablation.
func BenchmarkPoolBuild(b *testing.B) {
	tb := workload.Random(64, 64, 1, 11)
	opts := core.PoolOptions{MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4}
	for name, workers := range map[string]int{"serial": 1, "parallel": 0} {
		o := opts
		o.Workers = workers
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPool(tb, 1, 16, 7, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
