package prune

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/lpnorm"
)

// vecSource builds a Source over explicit candidate vectors: real
// sketches from a core.Sketcher, exact row power sums from the vectors,
// and the marginal lower bound the serving layer uses.
// It is the engine-level test harness (the server-level tests exercise
// the same engine through pool sketches and snapshots).
func vecSource(t testing.TB, p float64, k, rows, cols int, seed uint64, q []float64, cands [][]float64, skip int) Source {
	t.Helper()
	sk, err := core.NewSketcher(p, k, rows, cols, seed, core.EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	lp := lpnorm.MustP(p)
	qsk := sk.Sketch(q, nil)
	sketches := make([][]float64, len(cands))
	marginals := make([][]float64, len(cands))
	rowsOf := func(v []float64) func(r int) []float64 {
		return func(r int) []float64 { return v[r*cols : (r+1)*cols] }
	}
	for i, c := range cands {
		sketches[i] = sk.Sketch(c, nil)
		marginals[i] = lpnorm.Marginals(nil, rows, rowsOf(c))
	}
	qm := lpnorm.Marginals(nil, rows, rowsOf(q))
	return Source{
		K: k, N: len(cands), QSketch: qsk,
		Sketch:        func(i int) []float64 { return sketches[i] },
		CompoundSlack: 1,
		Rows:          rows, Cols: cols,
		RowPowSum: func(i, r int) float64 {
			return lp.DistPowSum(cands[i][r*cols:(r+1)*cols], q[r*cols:(r+1)*cols])
		},
		LowerBound:  func(i int) float64 { return lp.MarginalLowerBound(qm, marginals[i], cols) },
		BoundCoords: rows,
		Estimator:   sk.EstimatorKind(), Scale: sk.Scale(),
		Skip: skip,
	}
}

// tightBounds is src with the tightest lower bounds a Source may give, in
// rotation by candidate: the exact sum itself, so a tie at a lower index
// meets a bound EQUAL to the best; half of it, so the first candidate
// refined need not be the lowest index; NaN and +Inf, which must eliminate
// nothing.
func tightBounds(src Source, salt int) Source {
	rowPowSum, rows := src.RowPowSum, src.Rows
	src.LowerBound = func(i int) float64 {
		var sum float64
		for r := 0; r < rows; r++ {
			sum += rowPowSum(i, r)
		}
		return []float64{sum, sum / 2, math.NaN(), math.Inf(1)}[(i+salt)%4]
	}
	return src
}

// fullScan mirrors the reference semantics of Snapshot.ExactNearest:
// serial row-sum per candidate, strict-< argmin, lowest index on ties.
func fullScan(src Source) (int, float64) {
	best, bestSum := -1, math.Inf(1)
	for i := 0; i < src.N; i++ {
		if i == src.Skip {
			continue
		}
		var sum float64
		for r := 0; r < src.Rows; r++ {
			sum += src.RowPowSum(i, r)
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best, bestSum
}

// The exact margin is lossless by construction: across random problems —
// including exact ties from duplicated candidates — the progressive scan
// must return the bit-identical (index, power sum) of the full scan at
// every worker count, and its statistics must not depend on workers.
func TestExactMarginMatchesFullScanProperty(t *testing.T) {
	workersList := []int{1, 2, 0} // 0 = GOMAXPROCS
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(0xE0A0, uint64(trial)))
		p := []float64{0.5, 1, 2}[trial%3]
		rows, cols := 2+rng.IntN(4), 2+rng.IntN(4)
		dim := rows * cols
		k := 1 + rng.IntN(40)
		n := 1 + rng.IntN(50)
		q := randVec(rng, dim)
		cands := make([][]float64, n)
		for i := range cands {
			switch {
			case i > 0 && rng.IntN(4) == 0:
				// Duplicate an earlier candidate: exact distance ties.
				cands[i] = cands[rng.IntN(i)]
			case rng.IntN(8) == 0:
				cands[i] = make([]float64, dim) // all-zero candidate
			default:
				cands[i] = randVec(rng, dim)
			}
		}
		skip := -1
		if rng.IntN(3) == 0 {
			skip = rng.IntN(n)
		}
		src := vecSource(t, p, k, rows, cols, 0xBEEF+uint64(trial), q, cands, skip)
		wantIdx, wantSum := fullScan(src)
		chunk := 1 + rng.IntN(8)
		if trial%2 == 1 {
			src = tightBounds(src, trial/2)
		}

		var refStats *Stats
		for _, workers := range workersList {
			cfg := Config{Workers: workers, Chunk: chunk}
			gotIdx, gotSum, stats, err := Nearest(context.Background(), src, cfg)
			if wantIdx < 0 {
				if err != ErrNoCandidates {
					t.Fatalf("trial %d: want ErrNoCandidates, got idx=%d err=%v", trial, gotIdx, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if gotIdx != wantIdx || math.Float64bits(gotSum) != math.Float64bits(wantSum) {
				t.Fatalf("trial %d workers=%d: got (%d, %x), full scan (%d, %x)",
					trial, workers, gotIdx, math.Float64bits(gotSum), wantIdx, math.Float64bits(wantSum))
			}
			if refStats == nil {
				s := stats
				refStats = &s
			} else if *refStats != stats {
				t.Fatalf("trial %d workers=%d: stats %+v differ from workers=%d stats %+v",
					trial, workers, stats, workersList[0], *refStats)
			}
		}
	}
}

// On well-separated data the confidence margin must both prune hard and
// still return the true nearest, and its statistics must also be
// worker-count invariant.
func TestConfidenceMarginPrunesAndFindsNearest(t *testing.T) {
	// Tiles must be meaningfully bigger than the sketch for coordinate
	// savings to exist at all: 256 cells vs 65 lanes, the paper's regime.
	const (
		p          = 1.0
		rows, cols = 16, 16
		dim        = rows * cols
		k          = 65
		n          = 96
	)
	rng := rand.New(rand.NewPCG(0xC0FF, 1))
	q := randVec(rng, dim)
	cands := make([][]float64, n)
	for i := range cands {
		v := make([]float64, dim)
		if i%16 == 3 {
			// Near cluster: q plus small noise.
			for j := range v {
				v[j] = q[j] + 0.05*rng.NormFloat64()
			}
		} else {
			// Far: independent content at a large offset.
			for j := range v {
				v[j] = 10 + 4*rng.NormFloat64()
			}
		}
		cands[i] = v
	}
	src := vecSource(t, p, k, rows, cols, 0xF00D, q, cands, -1)
	wantIdx, wantSum := fullScan(src)

	plan, err := NewPlan(p, k, core.EstimatorMedian, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var refStats *Stats
	for _, workers := range []int{1, 3, 0} {
		idx, sum, stats, err := Nearest(context.Background(), src, Config{
			Plan: plan, Epsilon: 0.1, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if idx != wantIdx || math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("workers=%d: confidence scan returned (%d, %v), exact nearest is (%d, %v)",
				workers, idx, sum, wantIdx, wantSum)
		}
		if stats.PrunedCandidates == 0 {
			t.Errorf("workers=%d: no candidate pruned on data with 16x separation", workers)
		}
		if ev, tot := stats.CoordinatesEvaluated(), stats.CoordinatesTotal; ev*2 > tot {
			t.Errorf("workers=%d: evaluated %d of %d coordinates, expected a > 2x saving here", workers, ev, tot)
		}
		if refStats == nil {
			s := stats
			refStats = &s
		} else if *refStats != stats {
			t.Fatalf("workers=%d: stats %+v differ from first run %+v", workers, stats, *refStats)
		}
	}
}

// Elimination by bound is strict: candidate 1 ties candidate 3 for the
// smallest sum and its bound EQUALS that sum, while candidate 3's smaller
// bound has it refined first. Eliminating on bound ≥ best would answer 3;
// the full scan answers 1.
func TestBoundEliminationIsStrict(t *testing.T) {
	sums := []float64{9, 4, 10, 4, 5}
	bounds := []float64{8, 4, 2, 1, 5}
	src := Source{
		N: len(sums), Rows: 2, Cols: 1, Skip: -1,
		RowPowSum:  func(i, r int) float64 { return sums[i] / 2 },
		LowerBound: func(i int) float64 { return bounds[i] },
	}
	for _, chunk := range []int{1, 2, 32} {
		idx, sum, st, err := Nearest(context.Background(), src, Config{Chunk: chunk, Workers: 1})
		if err != nil || idx != 1 || sum != 4 {
			t.Fatalf("chunk %d: (%d, %v, %v), want candidate 1 at 4", chunk, idx, sum, err)
		}
		// 0 and 4 are ruled out by their bounds, 2 by its first row.
		if st.RefineAbandoned != 3 || st.CellsEvaluated != 2+2+1 {
			t.Errorf("chunk %d: %d abandoned, %d cells; want 3 and 5", chunk, st.RefineAbandoned, st.CellsEvaluated)
		}
	}
}

func TestNearestCancellation(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	q := randVec(rng, 16)
	cands := make([][]float64, 64)
	for i := range cands {
		cands[i] = randVec(rng, 16)
	}
	src := vecSource(t, 1, 9, 4, 4, 11, q, cands, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := Nearest(ctx, src, Config{Chunk: 4}); err == nil {
		t.Fatal("cancelled context: want error, got nil")
	}
}

func TestNearestValidation(t *testing.T) {
	src := Source{K: 4, N: 2, QSketch: make([]float64, 3)}
	if _, _, _, err := Nearest(context.Background(), src, Config{}); err == nil {
		t.Error("mismatched sketch length: want error")
	}
	src = Source{K: 4, N: 0, QSketch: make([]float64, 4)}
	if _, _, _, err := Nearest(context.Background(), src, Config{}); err != ErrNoCandidates {
		t.Errorf("empty source: want ErrNoCandidates, got %v", err)
	}
	// A plan built for a different k must be rejected, not misapplied.
	plan, err := NewPlan(1, 8, core.EstimatorMedian, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	q := randVec(rng, 4)
	src = vecSource(t, 1, 5, 2, 2, 3, q, [][]float64{randVec(rng, 4)}, -1)
	if _, _, _, err := Nearest(context.Background(), src, Config{Plan: plan}); err == nil {
		t.Error("plan k mismatch: want error")
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()*4 - 2
	}
	return v
}

func BenchmarkProgressiveVsFullScanEngine(b *testing.B) {
	// Engine-level microbenchmark (the system-level numbers live in
	// cmd/tabmine-bench → BENCH_6.json).
	rng := rand.New(rand.NewPCG(2, 2))
	const rows, cols, k, n = 8, 8, 65, 256
	q := randVec(rng, rows*cols)
	cands := make([][]float64, n)
	for i := range cands {
		if i%32 == 5 {
			v := make([]float64, rows*cols)
			for j := range v {
				v[j] = q[j] + 0.05*rng.NormFloat64()
			}
			cands[i] = v
		} else {
			v := make([]float64, rows*cols)
			for j := range v {
				v[j] = 8 + 3*rng.NormFloat64()
			}
			cands[i] = v
		}
	}
	src := vecSource(b, 1, k, rows, cols, 5, q, cands, -1)
	plan, err := NewPlan(1, k, core.EstimatorMedian, 0, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full_scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fullScan(src)
		}
	})
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"exact_margin", Config{Workers: 1}},
		{"confidence_margin", Config{Plan: plan, Epsilon: 0.1, Workers: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Nearest(context.Background(), src, cfg.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	_ = fmt.Sprint()
}
