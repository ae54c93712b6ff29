// Package experiments contains one runnable harness per table/figure of
// the paper's evaluation (Section 4), each returning structured rows that
// the cmd/tabmine-experiments tool prints. Defaults are laptop-scale;
// every config exposes the knobs needed to approach paper-scale runs.
//
// The index of experiments (what each reproduces, which modules it
// exercises) lives in DESIGN.md; measured-vs-paper results are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lpnorm"
	"repro/internal/table"
)

// Mode identifies the three distance scenarios of Section 4.4.
type Mode int

const (
	// ModeExact computes exact Lp distances over raw tiles.
	ModeExact Mode = iota
	// ModePrecomputed uses sketches computed before clustering starts.
	ModePrecomputed
	// ModeOnDemand computes each tile's sketch at first use, inside the
	// timed region.
	ModeOnDemand
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModePrecomputed:
		return "sketch-precomputed"
	case ModeOnDemand:
		return "sketch-on-demand"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ClusterRun reports one timed k-means execution.
type ClusterRun struct {
	Mode        Mode
	P           float64
	K           int // number of clusters
	SketchSize  int // sketch entries (0 for exact mode)
	PrepTime    time.Duration
	ClusterTime time.Duration
	TotalTime   time.Duration
	Assign      []int
	SpreadExact float64 // Σ distance to centroid, measured with exact Lp
	Iterations  int
	Comparisons int64
}

// runKMeansExact clusters raw tiles under the exact Lp distance.
func runKMeansExact(tiles [][]float64, p float64, k int, seed uint64) (*ClusterRun, error) {
	lp, err := lpnorm.NewP(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := cluster.KMeans(tiles, lp.Dist, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	return &ClusterRun{
		Mode: ModeExact, P: p, K: k,
		ClusterTime: elapsed, TotalTime: elapsed,
		Assign:      res.Assign,
		SpreadExact: exactSpread(tiles, res.Assign, k, lp),
		Iterations:  res.Iterations,
		Comparisons: res.Comparisons,
	}, nil
}

// runKMeansSketch clusters in sketch space. When precompute is true the
// sketch construction is timed separately as PrepTime (Section 4.4's
// scenario 1); otherwise it happens inside the timed clustering region
// (scenario 2 — with k-means every tile is sketched during the first
// iteration, so lazy sketching and bulk sketching coincide).
func runKMeansSketch(tiles [][]float64, tileRows, tileCols int, p float64, k, sketchK int, seed uint64, precompute bool) (*ClusterRun, error) {
	sk, err := core.NewSketcher(p, sketchK, tileRows, tileCols, seed^0x5ce7c4)
	if err != nil {
		return nil, err
	}
	lp, err := lpnorm.NewP(p)
	if err != nil {
		return nil, err
	}
	mode := ModeOnDemand
	if precompute {
		mode = ModePrecomputed
	}
	sketchAll := func() [][]float64 {
		points := make([][]float64, len(tiles))
		for i, tile := range tiles {
			points[i] = sk.Sketch(tile, nil)
		}
		return points
	}

	var prep time.Duration
	var points [][]float64
	if precompute {
		t0 := time.Now()
		points = sketchAll()
		prep = time.Since(t0)
	}
	dist := sk.Distance

	t0 := time.Now()
	if points == nil {
		points = sketchAll() // on-demand: sketching inside the timed region
	}
	res, err := cluster.KMeans(points, dist, cluster.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	clusterTime := time.Since(t0)
	return &ClusterRun{
		Mode: mode, P: p, K: k, SketchSize: sketchK,
		PrepTime: prep, ClusterTime: clusterTime, TotalTime: prep + clusterTime,
		Assign:      res.Assign,
		SpreadExact: exactSpread(tiles, res.Assign, k, lp),
		Iterations:  res.Iterations,
		Comparisons: res.Comparisons,
	}, nil
}

// exactSpread evaluates a clustering in tile space: centroids are rebuilt
// from raw tiles and the spread is measured with the exact Lp distance,
// so clusterings from different modes are compared on equal footing
// (Definition 11).
func exactSpread(tiles [][]float64, assign []int, k int, lp lpnorm.P) float64 {
	centroids := cluster.CentroidsOf(tiles, assign, k)
	return cluster.Spread(tiles, assign, centroids, lp.Dist)
}

// gridTiles materializes the tiles of t under a grid of the given tile
// dimensions.
func gridTiles(t *table.Table, tileRows, tileCols int) ([][]float64, *table.Grid, error) {
	g, err := table.NewGrid(t.Rows(), t.Cols(), tileRows, tileCols)
	if err != nil {
		return nil, nil, err
	}
	return g.Tiles(t), g, nil
}
