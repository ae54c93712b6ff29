package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/table"
	"repro/internal/workload"
)

// AlgosConfig drives the cross-algorithm extension experiment: the paper
// claims its distance computations apply "to any mining or similarity
// algorithms that use Lp norms"; this harness verifies it by running
// k-means, k-medoids, and agglomerative clustering over the same sketched
// distances on the planted six-region dataset and scoring each against
// ground truth.
type AlgosConfig struct {
	P           float64
	SketchK     int
	Rows, Cols  int
	TileEdge    int
	OutlierFrac float64
	OutlierMag  float64
	Seed        uint64
	Restarts    int // restarts for the partition algorithms (best by own spread)
}

// DefaultAlgosConfig is laptop scale at the paper's recommended p = 0.5.
func DefaultAlgosConfig() AlgosConfig {
	return AlgosConfig{
		P:           0.5,
		SketchK:     256,
		Rows:        128,
		Cols:        64,
		TileEdge:    8,
		OutlierFrac: 0.01,
		OutlierMag:  60_000,
		Seed:        42,
		Restarts:    5,
	}
}

// AlgoRow reports one algorithm's result.
type AlgoRow struct {
	Algorithm string
	Accuracy  float64 // agreement with the planted clustering
	Time      time.Duration
}

// RunAlgos executes the comparison.
func RunAlgos(cfg AlgosConfig) ([]AlgoRow, error) {
	if cfg.P <= 0 || cfg.SketchK <= 0 || cfg.TileEdge <= 0 || cfg.Restarts < 1 {
		return nil, fmt.Errorf("experiments: invalid algos config %+v", cfg)
	}
	data, err := workload.NewSixRegions(workload.SixRegionsConfig{
		Rows: cfg.Rows, Cols: cfg.Cols, Seed: cfg.Seed,
		OutlierFrac: cfg.OutlierFrac, OutlierMag: cfg.OutlierMag,
	})
	if err != nil {
		return nil, err
	}
	g, err := table.NewGrid(cfg.Rows, cfg.Cols, cfg.TileEdge, cfg.TileEdge)
	if err != nil {
		return nil, err
	}
	truth, err := data.TileLabels(g)
	if err != nil {
		return nil, err
	}
	tiles := g.Tiles(data.Table)

	sk, err := core.NewSketcher(cfg.P, cfg.SketchK, cfg.TileEdge, cfg.TileEdge,
		cfg.Seed^0xa190)
	if err != nil {
		return nil, err
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	dist := sk.Distance
	k := workload.NumRegions

	score := func(assign []int) (float64, error) {
		return evalmetrics.Agreement(truth, assign, k)
	}
	var rows []AlgoRow

	// Partition algorithms restart from different seeds; the run with the
	// smallest spread (the algorithm's own objective, no ground truth) is
	// scored. The hierarchical methods are deterministic.
	type partitionAlgo struct {
		name string
		run  func(seed uint64) (*cluster.Result, error)
	}
	for _, algo := range []partitionAlgo{
		{"k-means", func(seed uint64) (*cluster.Result, error) {
			return cluster.KMeans(points, dist, cluster.Config{K: k, Seed: seed, Init: cluster.InitPlusPlus})
		}},
		{"k-medoids", func(seed uint64) (*cluster.Result, error) {
			return cluster.KMedoids(points, dist, cluster.Config{K: k, Seed: seed, Init: cluster.InitPlusPlus})
		}},
	} {
		t0 := time.Now()
		best, err := cluster.BestOf(cfg.Restarts, cfg.Seed, algo.run)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		acc, err := score(best.Assign)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlgoRow{Algorithm: algo.name, Accuracy: acc, Time: elapsed})
	}

	for _, linkage := range []cluster.Linkage{cluster.CompleteLinkage, cluster.AverageLinkage} {
		t0 := time.Now()
		merges, err := cluster.Agglomerative(points, dist, linkage)
		if err != nil {
			return nil, err
		}
		labels, err := cluster.CutDendrogram(merges, len(points), k)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		acc, err := score(labels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlgoRow{
			Algorithm: "hierarchical/" + linkage.String(), Accuracy: acc, Time: elapsed,
		})
	}
	return rows, nil
}
