package experiments

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/lpnorm"
	"repro/internal/workload"
)

// SweepKConfig drives the sketch-size ablation the paper alludes to
// ("recall that the accuracy of sketching can be improved by using larger
// sized sketches"; "this time benefit could be made even more pronounced
// by reducing the size of the sketches at the expense of a loss in
// accuracy"): accuracy metrics as a function of k, at fixed tile size.
type SweepKConfig struct {
	P        float64
	KValues  []int
	Pairs    int
	TileEdge int
	Stations int
	Days     int
	Seed     uint64
}

// DefaultSweepKConfig is laptop scale.
func DefaultSweepKConfig(p float64) SweepKConfig {
	return SweepKConfig{
		P:        p,
		KValues:  []int{8, 16, 32, 64, 128, 256, 512},
		Pairs:    500,
		TileEdge: 16,
		Stations: 96,
		Days:     1,
		Seed:     42,
	}
}

// SweepKRow is one sketch size.
type SweepKRow struct {
	K          int
	Cumulative float64
	Average    float64
	Pairwise   float64
}

// RunSweepK executes the ablation. All sketch sizes see the same tile
// pairs, so rows are directly comparable.
func RunSweepK(cfg SweepKConfig) ([]SweepKRow, error) {
	if cfg.P <= 0 || len(cfg.KValues) == 0 || cfg.Pairs <= 0 || cfg.TileEdge <= 0 {
		return nil, fmt.Errorf("experiments: invalid sweep config %+v", cfg)
	}
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: cfg.Stations, Days: cfg.Days, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	edge := cfg.TileEdge
	if edge > tb.Rows() || edge > tb.Cols() {
		return nil, fmt.Errorf("experiments: tile %d exceeds table %dx%d", edge, tb.Rows(), tb.Cols())
	}
	lp, err := lpnorm.NewP(cfg.P)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5ee9))
	maxR, maxC := tb.Rows()-edge, tb.Cols()-edge
	type anchor struct{ r, c int }
	sample := func() anchor { return anchor{rng.IntN(maxR + 1), rng.IntN(maxC + 1)} }
	xs := make([]anchor, cfg.Pairs)
	ys := make([]anchor, cfg.Pairs)
	zs := make([]anchor, cfg.Pairs)
	for i := range xs {
		xs[i], ys[i], zs[i] = sample(), sample(), sample()
		for ys[i] == xs[i] {
			ys[i] = sample()
		}
	}
	vec := func(a anchor) []float64 { return tb.Linearize(tableRect(a.r, a.c, edge), nil) }
	exactXY := make([]float64, cfg.Pairs)
	exactXZ := make([]float64, cfg.Pairs)
	for i := range xs {
		exactXY[i] = lp.Dist(vec(xs[i]), vec(ys[i]))
		exactXZ[i] = lp.Dist(vec(xs[i]), vec(zs[i]))
	}

	rows := make([]SweepKRow, 0, len(cfg.KValues))
	for _, k := range cfg.KValues {
		sk, err := core.NewSketcher(cfg.P, k, edge, edge, cfg.Seed^uint64(k)<<16)
		if err != nil {
			return nil, err
		}
		dist := func(a, b anchor) float64 {
			return sk.Distance(sk.Sketch(vec(a), nil), sk.Sketch(vec(b), nil))
		}
		estXY := make([]float64, cfg.Pairs)
		triples := make([]evalmetrics.Triple, cfg.Pairs)
		for i := range xs {
			estXY[i] = dist(xs[i], ys[i])
			estXZ := dist(xs[i], zs[i])
			triples[i] = evalmetrics.Triple{
				ExactXY: exactXY[i], ExactXZ: exactXZ[i],
				EstXY: estXY[i], EstXZ: estXZ,
			}
		}
		cum, err := evalmetrics.Cumulative(estXY, exactXY)
		if err != nil {
			return nil, err
		}
		avg, err := evalmetrics.Average(estXY, exactXY)
		if err != nil {
			return nil, err
		}
		pw, err := evalmetrics.Pairwise(triples)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepKRow{K: k, Cumulative: cum, Average: avg, Pairwise: pw})
	}
	return rows, nil
}
