package experiments

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/lpnorm"
	"repro/internal/transform"
	"repro/internal/workload"
)

// BaselinesConfig drives the Section 2/5 comparison: stable sketches vs
// the transform-based reductions (DFT, DCT, Haar) as estimators of L2 and
// of L1 distance over call-volume tiles. The transforms hold their own
// under L2 and break under L1; the stable sketch tracks both.
type BaselinesConfig struct {
	Pairs    int
	TileEdge int
	Coeffs   int // kept transform coefficients AND sketch entries (equal budgets)
	Stations int
	Days     int
	Seed     uint64
}

// DefaultBaselinesConfig is laptop scale.
func DefaultBaselinesConfig() BaselinesConfig {
	return BaselinesConfig{
		Pairs:    1000,
		TileEdge: 16,
		Coeffs:   32,
		Stations: 96,
		Days:     1,
		Seed:     42,
	}
}

// BaselineRow reports one (estimator, target norm) combination.
type BaselineRow struct {
	Estimator  string  // "sketch", "DFT", "DCT", "Haar"
	P          float64 // the target Lp
	Cumulative float64
	Average    float64
	Pairwise   float64
}

// RunBaselines executes the comparison for p = 2 and p = 1.
func RunBaselines(cfg BaselinesConfig) ([]BaselineRow, error) {
	if cfg.Pairs <= 0 || cfg.TileEdge <= 0 || cfg.Coeffs <= 0 {
		return nil, fmt.Errorf("experiments: invalid baselines config %+v", cfg)
	}
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: cfg.Stations, Days: cfg.Days, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	edge := cfg.TileEdge
	dim := edge * edge
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xba5e11e5))
	maxR, maxC := tb.Rows()-edge, tb.Cols()-edge
	// Sample tile triples once; reuse across all estimators.
	type anchor struct{ r, c int }
	xs := make([]anchor, cfg.Pairs)
	ys := make([]anchor, cfg.Pairs)
	zs := make([]anchor, cfg.Pairs)
	for i := 0; i < cfg.Pairs; i++ {
		xs[i] = anchor{rng.IntN(maxR + 1), rng.IntN(maxC + 1)}
		ys[i] = anchor{rng.IntN(maxR + 1), rng.IntN(maxC + 1)}
		zs[i] = anchor{rng.IntN(maxR + 1), rng.IntN(maxC + 1)}
	}
	vecOf := func(a anchor) []float64 {
		return tb.Linearize(tableRect(a.r, a.c, edge), nil)
	}

	var rows []BaselineRow
	for _, p := range []float64{2, 1} {
		lp := lpnorm.MustP(p)
		exactXY := make([]float64, cfg.Pairs)
		exactXZ := make([]float64, cfg.Pairs)
		for i := 0; i < cfg.Pairs; i++ {
			x, y, z := vecOf(xs[i]), vecOf(ys[i]), vecOf(zs[i])
			exactXY[i] = lp.Dist(x, y)
			exactXZ[i] = lp.Dist(x, z)
		}
		evalEstimator := func(name string, dist func(x, y []float64) float64) error {
			estXY := make([]float64, cfg.Pairs)
			estXZ := make([]float64, cfg.Pairs)
			triples := make([]evalmetrics.Triple, cfg.Pairs)
			for i := 0; i < cfg.Pairs; i++ {
				x, y, z := vecOf(xs[i]), vecOf(ys[i]), vecOf(zs[i])
				estXY[i] = dist(x, y)
				estXZ[i] = dist(x, z)
				triples[i] = evalmetrics.Triple{
					ExactXY: exactXY[i], ExactXZ: exactXZ[i],
					EstXY: estXY[i], EstXZ: estXZ[i],
				}
			}
			cum, err := evalmetrics.Cumulative(estXY, exactXY)
			if err != nil {
				return err
			}
			avg, err := evalmetrics.Average(estXY, exactXY)
			if err != nil {
				return err
			}
			pw, err := evalmetrics.Pairwise(triples)
			if err != nil {
				return err
			}
			rows = append(rows, BaselineRow{
				Estimator: name, P: p,
				Cumulative: cum, Average: avg, Pairwise: pw,
			})
			return nil
		}

		sk, err := core.NewSketcher(p, cfg.Coeffs, edge, edge, cfg.Seed^0xf00d)
		if err != nil {
			return nil, err
		}
		if err := evalEstimator("sketch", func(x, y []float64) float64 {
			return sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
		}); err != nil {
			return nil, err
		}

		for _, method := range []transform.Method{transform.DFT, transform.DCT, transform.Haar} {
			m := cfg.Coeffs
			if method == transform.DFT {
				m /= 2 // DFT coefficients are complex: equal float budget
			}
			red, err := transform.NewReducer(method, dim, m)
			if err != nil {
				return nil, err
			}
			if err := evalEstimator(method.String(), func(x, y []float64) float64 {
				return red.Dist(red.Reduce(x, nil), red.Reduce(y, nil))
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
