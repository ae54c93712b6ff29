package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/lpnorm"
	"repro/internal/table"
	"repro/internal/workload"
)

// Fig2Config drives the Figure 2 experiment: assessing the distance
// between randomly chosen pairs of square tiles of growing size, by exact
// computation and by precomputed sketches, measuring both wall-clock and
// the accuracy metrics of Definitions 7–9.
type Fig2Config struct {
	P         float64 // Lp exponent (the paper shows p = 1 and p = 2)
	Pairs     int     // random pairs per size (paper: 20,000)
	SketchK   int     // sketch entries
	TileEdges []int   // square tile edge lengths (paper: 8..256, i.e. 256B..256KB objects)
	Stations  int     // call-volume rows; must cover the largest tile
	Days      int     // call-volume days; columns = 144·Days
	Seed      uint64
}

// DefaultFig2Config returns the laptop-scale default (override Pairs and
// TileEdges to approach the paper's 20,000-pair 256KB-object runs).
func DefaultFig2Config(p float64) Fig2Config {
	return Fig2Config{
		P:         p,
		Pairs:     2000,
		SketchK:   128,
		TileEdges: []int{8, 16, 32, 64},
		Stations:  96,
		Days:      1,
		Seed:      42,
	}
}

// Fig2Row is one object-size point of Figure 2.
type Fig2Row struct {
	TileEdge    int
	ObjectCells int
	ObjectBytes int // at 8 bytes per float64 cell
	// Timing panel.
	ExactTime   time.Duration // exact distance for all pairs
	SketchTime  time.Duration // sketched distance for all pairs (sketches ready)
	PreprocTime time.Duration // building the all-positions sketch planes, table transform included
	// Accuracy panel (Definitions 7–9).
	Cumulative float64
	Average    float64
	Pairwise   float64
}

// RunFig2 executes the experiment and returns one row per tile size.
func RunFig2(cfg Fig2Config) ([]Fig2Row, error) {
	if cfg.P <= 0 || cfg.Pairs <= 0 || cfg.SketchK <= 0 || len(cfg.TileEdges) == 0 {
		return nil, fmt.Errorf("experiments: invalid fig2 config %+v", cfg)
	}
	maxEdge := 0
	for _, e := range cfg.TileEdges {
		if e > maxEdge {
			maxEdge = e
		}
	}
	if cfg.Stations < maxEdge || cfg.Days*workload.BucketsPerDay < maxEdge {
		return nil, fmt.Errorf("experiments: table %dx%d smaller than largest tile %d",
			cfg.Stations, cfg.Days*workload.BucketsPerDay, maxEdge)
	}
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: cfg.Stations, Days: cfg.Days, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	lp, err := lpnorm.NewP(cfg.P)
	if err != nil {
		return nil, err
	}

	rows := make([]Fig2Row, 0, len(cfg.TileEdges))
	for _, edge := range cfg.TileEdges {
		row, err := runFig2Size(tb, lp, cfg, edge)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runFig2Size(tb *table.Table, lp lpnorm.P, cfg Fig2Config, edge int) (*Fig2Row, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(edge)))
	maxR := tb.Rows() - edge
	maxC := tb.Cols() - edge
	type pair struct{ r1, c1, r2, c2 int }
	pairs := make([]pair, cfg.Pairs)
	for i := range pairs {
		p := pair{rng.IntN(maxR + 1), rng.IntN(maxC + 1), rng.IntN(maxR + 1), rng.IntN(maxC + 1)}
		// Identical anchors give exact distance zero, which Definition 8
		// cannot score; resample (the anchor space is large, so this
		// terminates immediately in practice).
		for p.r1 == p.r2 && p.c1 == p.c2 {
			p.r2, p.c2 = rng.IntN(maxR+1), rng.IntN(maxC+1)
		}
		pairs[i] = p
	}

	// Preprocessing: the all-positions sketch planes of Theorem 3.
	sk, err := core.NewSketcher(cfg.P, cfg.SketchK, edge, edge, cfg.Seed^uint64(edge)<<8)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	planes := sk.AllPositions(tb)
	preproc := time.Since(t0)

	// Exact distances (timed) — also the accuracy reference.
	exact := make([]float64, len(pairs))
	bufA := make([]float64, edge*edge)
	bufB := make([]float64, edge*edge)
	t0 = time.Now()
	for i, p := range pairs {
		a := tb.Linearize(table.Rect{R0: p.r1, C0: p.c1, Rows: edge, Cols: edge}, bufA)
		b := tb.Linearize(table.Rect{R0: p.r2, C0: p.c2, Rows: edge, Cols: edge}, bufB)
		exact[i] = lp.Dist(a, b)
	}
	exactTime := time.Since(t0)

	// Sketched distances (timed): O(k) per pair regardless of tile size.
	est := make([]float64, len(pairs))
	t0 = time.Now()
	for i, p := range pairs {
		est[i] = planes.Distance(p.r1, p.c1, p.r2, p.c2)
	}
	sketchTime := time.Since(t0)

	cum, err := evalmetrics.Cumulative(est, exact)
	if err != nil {
		return nil, err
	}
	avg, err := evalmetrics.Average(est, exact)
	if err != nil {
		return nil, err
	}

	// Pairwise comparison correctness on (x, y, z) triples.
	nTriples := cfg.Pairs
	triples := make([]evalmetrics.Triple, 0, nTriples)
	for i := 0; i < nTriples; i++ {
		x := pair{rng.IntN(maxR + 1), rng.IntN(maxC + 1), 0, 0}
		y := pair{rng.IntN(maxR + 1), rng.IntN(maxC + 1), 0, 0}
		z := pair{rng.IntN(maxR + 1), rng.IntN(maxC + 1), 0, 0}
		ax := tb.Linearize(table.Rect{R0: x.r1, C0: x.c1, Rows: edge, Cols: edge}, bufA)
		ay := tb.Linearize(table.Rect{R0: y.r1, C0: y.c1, Rows: edge, Cols: edge}, bufB)
		exy := lp.Dist(ax, ay)
		az := tb.Linearize(table.Rect{R0: z.r1, C0: z.c1, Rows: edge, Cols: edge}, bufB)
		exz := lp.Dist(ax, az)
		sxy := planes.Distance(x.r1, x.c1, y.r1, y.c1)
		sxz := planes.Distance(x.r1, x.c1, z.r1, z.c1)
		triples = append(triples, evalmetrics.Triple{
			ExactXY: exy, ExactXZ: exz, EstXY: sxy, EstXZ: sxz,
		})
	}
	pw, err := evalmetrics.Pairwise(triples)
	if err != nil {
		return nil, err
	}

	return &Fig2Row{
		TileEdge:    edge,
		ObjectCells: edge * edge,
		ObjectBytes: edge * edge * 8,
		ExactTime:   exactTime,
		SketchTime:  sketchTime,
		PreprocTime: preproc,
		Cumulative:  cum,
		Average:     avg,
		Pairwise:    pw,
	}, nil
}
