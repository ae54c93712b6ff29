package prune

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
)

// vecSource builds a Source over explicit candidate vectors: exact row
// power sums from the vectors and the marginal lower bound the serving
// layer uses. It is the engine-level test harness (the server-level tests
// exercise the same engine through snapshots).
func vecSource(t testing.TB, p float64, rows, cols int, q []float64, cands [][]float64, skip int) Source {
	t.Helper()
	lp := lpnorm.MustP(p)
	marginals := make([][]float64, len(cands))
	rowsOf := func(v []float64) func(r int) []float64 {
		return func(r int) []float64 { return v[r*cols : (r+1)*cols] }
	}
	for i, c := range cands {
		marginals[i] = lpnorm.Marginals(nil, rows, rowsOf(c))
	}
	qm := lpnorm.Marginals(nil, rows, rowsOf(q))
	return Source{
		N:    len(cands),
		Rows: rows, Cols: cols,
		RowPowSum: func(i, r int) float64 {
			return lp.DistPowSum(cands[i][r*cols:(r+1)*cols], q[r*cols:(r+1)*cols])
		},
		LowerBound:  func(i int) float64 { return lp.MarginalLowerBound(qm, marginals[i], cols) },
		BoundCoords: rows,
		Skip:        skip,
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

// The engine is lossless by construction: across random problems —
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
		src := vecSource(t, p, rows, cols, q, cands, skip)
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
	src := vecSource(t, 1, 4, 4, q, cands, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := Nearest(ctx, src, Config{Chunk: 4}); err == nil {
		t.Fatal("cancelled context: want error, got nil")
	}
}

func TestNearestValidation(t *testing.T) {
	for _, src := range []Source{
		{N: -1},
		{N: 2, Rows: -1, Cols: 4},
		{N: 2, Rows: 2, Cols: 2}, // no RowPowSum
	} {
		if _, _, _, err := Nearest(context.Background(), src, Config{}); err == nil || err == ErrNoCandidates {
			t.Errorf("Nearest(%+v): want a validation error, got %v", src, err)
		}
	}
	if _, _, _, err := Nearest(context.Background(), Source{Skip: -1}, Config{}); err != ErrNoCandidates {
		t.Errorf("empty source: want ErrNoCandidates, got %v", err)
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
	// `make bench-refine`).
	rng := rand.New(rand.NewPCG(2, 2))
	const rows, cols, n = 8, 8, 256
	q := randVec(rng, rows*cols)
	cands := make([][]float64, n)
	for i := range cands {
		v := make([]float64, rows*cols)
		for j := range v {
			if i%32 == 5 {
				v[j] = q[j] + 0.05*rng.NormFloat64()
			} else {
				v[j] = 8 + 3*rng.NormFloat64()
			}
		}
		cands[i] = v
	}
	src := vecSource(b, 1, rows, cols, q, cands, -1)
	b.Run("full_scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fullScan(src)
		}
	})
	b.Run("progressive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := Nearest(context.Background(), src, Config{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
