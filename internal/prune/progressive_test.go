package prune

import (
	"context"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/lpnorm"
)

// vecSet is a set of rows × cols candidate vectors with their marginal
// summaries, what the serving layer keeps per tile.
type vecSet struct {
	lp         lpnorm.P
	rows, cols int
	cands      [][]float64
	marginals  [][]float64
}

func newVecSet(p float64, rows, cols int, cands [][]float64) *vecSet {
	vs := &vecSet{lp: lpnorm.MustP(p), rows: rows, cols: cols, cands: cands, marginals: make([][]float64, len(cands))}
	for i, c := range cands {
		vs.marginals[i] = vs.summary(c)
	}
	return vs
}

func (vs *vecSet) summary(v []float64) []float64 {
	return lpnorm.Marginals(nil, vs.rows, func(r int) []float64 { return v[r*vs.cols : (r+1)*vs.cols] })
}

// source is the Source the serving layer builds for query q: exact row
// power sums from the vectors and both marginal lower bounds.
func (vs *vecSet) source(q []float64, skip int) Source {
	lp, cols, qm := vs.lp, vs.cols, vs.summary(q)
	return Source{
		N:    len(vs.cands),
		Rows: vs.rows, Cols: cols,
		RowPowSum: func(i, r int) float64 {
			return lp.DistPowSum(vs.cands[i][r*cols:(r+1)*cols], q[r*cols:(r+1)*cols])
		},
		LowerBound:  func(i int) float64 { return lp.MarginalLowerBound(qm, vs.marginals[i], cols) },
		BoundCoords: vs.rows,
		TotalBound:  func(i int) float64 { return lp.TotalLowerBound(qm, vs.marginals[i], cols) },
		Skip:        skip,
	}
}

// vecSource builds a Source over explicit candidate vectors. It is the
// engine-level test harness (the server-level tests exercise the same
// engine through snapshots).
func vecSource(p float64, rows, cols int, q []float64, cands [][]float64, skip int) Source {
	return newVecSet(p, rows, cols, cands).source(q, skip)
}

// exactSum is candidate i's completed power sum as the engine accumulates
// it.
func exactSum(src Source, i int) float64 {
	var sum float64
	for r := 0; r < src.Rows; r++ {
		sum += src.RowPowSum(i, r)
	}
	return sum
}

// tightBounds is src with the tightest lower bounds a Source may give, in
// rotation by candidate: the exact sum itself, so a tie at a lower index
// meets a bound EQUAL to the best; half of it, so the first candidate
// refined need not be the lowest index; NaN and +Inf, which must eliminate
// nothing.
func tightBounds(src Source, salt int) Source {
	src.LowerBound = func(i int) float64 {
		sum := exactSum(src, i)
		return []float64{sum, sum / 2, math.NaN(), math.Inf(1)}[(i+salt)%4]
	}
	return src
}

// tightTotals is src with adversarial total bounds, in a rotation of its
// own: the exact sum, which is above any row bound below it, so the tiers'
// decisions are no longer the row bound's alone; NaN and +Inf, which must
// eliminate nothing and take no row bound's place.
func tightTotals(src Source, salt int) Source {
	src.TotalBound = func(i int) float64 {
		return []float64{exactSum(src, i), math.NaN(), math.Inf(1)}[(i+salt)%3]
	}
	return src
}

// boundCalls counts the bound calls one search makes, safely across its
// workers.
type boundCalls struct{ totals, rows atomic.Int64 }

// countBounds is src with its bounds wrapped to count their calls in the
// returned boundCalls.
func countBounds(src Source) (Source, *boundCalls) {
	c := new(boundCalls)
	if total := src.TotalBound; total != nil {
		src.TotalBound = func(i int) float64 {
			c.totals.Add(1)
			return total(i)
		}
	}
	if lower := src.LowerBound; lower != nil {
		src.LowerBound = func(i int) float64 {
			c.rows.Add(1)
			return lower(i)
		}
	}
	return src, c
}

// checkBoundCalls fails unless the search took every candidate's total
// (when src has them), at least one row bound and at most one a candidate,
// and counted in BoundCoordinates exactly the coordinates those calls
// compared.
func checkBoundCalls(t *testing.T, st Stats, src Source, c *boundCalls) {
	t.Helper()
	totals, rows := c.totals.Load(), c.rows.Load()
	if src.TotalBound != nil && totals != int64(st.Candidates) {
		t.Fatalf("%d totals taken for %d candidates", totals, st.Candidates)
	}
	if src.LowerBound != nil && st.Candidates > 0 && (rows < 1 || rows > int64(st.Candidates)) {
		t.Fatalf("%d row bounds taken for %d candidates", rows, st.Candidates)
	}
	if want := totals + rows*int64(src.BoundCoords); st.BoundCoordinates != want {
		t.Fatalf("BoundCoordinates %d, the bounds taken compared %d (%d totals, %d row bounds × %d)",
			st.BoundCoordinates, want, totals, rows, src.BoundCoords)
	}
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
// every worker count, and its statistics must not depend on workers and
// must count the bound coordinates it actually compared.
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
		src := vecSource(p, rows, cols, q, cands, skip)
		wantIdx, wantSum := fullScan(src)
		chunk := 1 + rng.IntN(8)
		if trial%2 == 1 {
			src = tightBounds(src, trial/2)
		}
		if trial%4 == 3 {
			src.TotalBound = nil // the rows-only engine, against adversarial row bounds
		}
		if trial%3 == 2 {
			src = tightTotals(src, trial/3)
		}

		var refStats *Stats
		for _, workers := range workersList {
			cfg := Config{Workers: workers, Chunk: chunk}
			counted, calls := countBounds(src)
			gotIdx, gotSum, stats, err := Nearest(context.Background(), counted, cfg)
			checkBoundCalls(t, stats, src, calls)
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
// the full scan answers 1. The same holds when the bounds are also the
// totals, so that the total tier does the eliminating.
func TestBoundEliminationIsStrict(t *testing.T) {
	sums := []float64{9, 4, 10, 4, 5}
	bounds := []float64{8, 4, 2, 1, 5}
	src := Source{
		N: len(sums), Rows: 2, Cols: 1, Skip: -1,
		RowPowSum:  func(i, r int) float64 { return sums[i] / 2 },
		LowerBound: func(i int) float64 { return bounds[i] },
	}
	tiered := src
	tiered.TotalBound = src.LowerBound
	for _, src := range []Source{src, tiered} {
		for _, chunk := range []int{1, 2, 32} {
			idx, sum, st, err := Nearest(context.Background(), src, Config{Chunk: chunk, Workers: 1})
			if err != nil || idx != 1 || sum != 4 {
				t.Fatalf("chunk %d: (%d, %v, %v), want candidate 1 at 4", chunk, idx, sum, err)
			}
			// 0 and 4 are ruled out by their bounds, 2 by its first row.
			if read := st.CellsEvaluated - st.BoundCoordinates; st.RefineAbandoned != 3 || read != 2+2+1 {
				t.Errorf("chunk %d: %d abandoned, %d cells; want 3 and 5", chunk, st.RefineAbandoned, read)
			}
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
	src := vecSource(1, 4, 4, q, cands, -1)
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
	src := vecSource(1, rows, cols, q, cands, -1)
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
