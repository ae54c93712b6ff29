package prune

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// FuzzProgressiveNearest drives the engine through degenerate problem
// shapes — one candidate, tile == table (every index skipped), duplicated
// candidates (exact ties), all-zero candidates, huge cells whose
// marginals are useless — with the tiered marginal bounds the serving
// layer hands it (total, then rows), with the rows alone, and with
// adversarial row and total bounds, and asserts the load-bearing
// invariants: never panic, the answer is bit-equal to the full scan at
// every chunk size (elimination by bound, ties at lower indices and
// unusable bounds included), results and statistics are worker-count
// invariant, BoundCoordinates counts the bounds actually taken at every
// worker count, and a mode=prune query's
// knobs, once inside what the wire accepts, are valid — the answer they
// get is this one. The k argument is what sized the sketch screen the
// engine once ran; it is kept so the corpus still decodes.
func FuzzProgressiveNearest(f *testing.F) {
	f.Add(uint64(1), 8, 9, 2, 3, 4, 0.1, 0.05)
	f.Add(uint64(2), 1, 1, 1, 1, 1, 0.0, 0.5)     // single candidate, k=1
	f.Add(uint64(3), 2, 3, 4, 4, 1, 2.0, 0.001)   // tiny chunk
	f.Add(uint64(4), 33, 17, 3, 2, 16, 0.3, 0.01) // chunked multi-round
	f.Add(uint64(5), 5, 64, 1, 1, 8, 0.05, 0.9)   // 1x1 tiles, sketch >> table
	f.Fuzz(func(t *testing.T, seed uint64, n, _, rows, cols, chunk int, epsilon, delta float64) {
		n = clampInt(n, 1, 48)
		rows = clampInt(rows, 1, 8)
		cols = clampInt(cols, 1, 8)
		chunk = clampInt(chunk, 1, 24)
		if !(epsilon >= 0) || epsilon > 8 {
			epsilon = 0.1
		}
		if !(delta > 0) || delta >= 1 {
			delta = 0.05
		}
		rng := rand.New(rand.NewPCG(seed, 0xF022))
		p := []float64{0.5, 1, 2}[seed%3]
		dim := rows * cols

		q := fuzzVec(rng, dim, 1)
		cands := make([][]float64, n)
		for i := range cands {
			switch {
			case i > 0 && rng.IntN(4) == 0:
				cands[i] = cands[rng.IntN(i)] // exact tie
			case rng.IntN(6) == 0:
				cands[i] = make([]float64, dim) // all-zero candidate
			case rng.IntN(6) == 0:
				cands[i] = append([]float64(nil), q...) // distance zero
			default:
				// One in eight is huge, and some of those so huge that their
				// squares (and their marginals) overflow: a sum of +Inf never
				// wins, a bound of +Inf must eliminate nothing.
				cands[i] = fuzzVec(rng, dim, []float64{1, 1, 1, 1, 1, 1, 1e12, 1e200}[rng.IntN(8)])
			}
		}
		skip := -1
		if rng.IntN(3) == 0 {
			skip = rng.IntN(n) // sometimes the query IS a candidate tile
		}
		src := vecSource(p, rows, cols, q, cands, skip)
		wantIdx, wantSum := fullScan(src)

		// The fuzzed chunk size and 1, 7 and 32, each at
		// 1–4 workers: bit-equal to the full scan (or the same no-candidate
		// failure), statistics equal across workers, and BoundCoordinates
		// what the bounds taken compared. With the marginal bounds; with the
		// tightest row bounds a Source may give — the exact sum itself, so a
		// tie at a lower index meets a bound EQUAL to the best; half of it,
		// so the first candidate refined is not the lowest index; NaN and
		// +Inf, which must eliminate nothing — each with no total in front,
		// with the marginal total, and with adversarial totals: the exact
		// sum (above the row bound), NaN and +Inf.
		tight := tightBounds(src, int(seed%4))
		rowsOnly, tightRows := src, tight
		rowsOnly.TotalBound, tightRows.TotalBound = nil, nil
		for _, src := range []Source{src, tight, rowsOnly, tightRows, tightTotals(src, int(seed%3)), tightTotals(tight, int(seed%5))} {
			for _, ch := range []int{chunk, 1, 7, 32} {
				var st1 Stats
				for workers := 1; workers <= 4; workers++ {
					counted, calls := countBounds(src)
					idx, sum, st, err := Nearest(context.Background(), counted, Config{Chunk: ch, Workers: workers})
					checkBoundCalls(t, st, src, calls)
					if wantIdx < 0 {
						if err != ErrNoCandidates {
							t.Fatalf("degenerate problem: want ErrNoCandidates, got %v", err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("exact margin errored: %v", err)
					}
					if idx != wantIdx || math.Float64bits(sum) != math.Float64bits(wantSum) {
						t.Fatalf("chunk %d workers %d: search (%d, %x) != full scan (%d, %x)",
							ch, workers, idx, math.Float64bits(sum), wantIdx, math.Float64bits(wantSum))
					}
					if workers == 1 {
						st1 = st
						checkStats(t, st, src)
					} else if st != st1 {
						t.Fatalf("chunk %d: %d workers changed the statistics: %+v vs %+v", ch, workers, st, st1)
					}
				}
			}
		}
		plan, err := NewPlan(delta)
		if err != nil {
			t.Fatalf("NewPlan(%v): %v", delta, err)
		}
		if err := CheckKnobs(plan, epsilon); err != nil {
			t.Fatalf("CheckKnobs(δ=%v, ε=%v): %v", delta, epsilon, err)
		}
	})
}

func checkStats(t *testing.T, st Stats, src Source) {
	t.Helper()
	wantCands := src.N
	if src.Skip >= 0 && src.Skip < src.N {
		wantCands--
	}
	if st.Candidates != wantCands || st.ScreenSurvivors != wantCands {
		t.Fatalf("Candidates = %d, survivors = %d, want %d", st.Candidates, st.ScreenSurvivors, wantCands)
	}
	cells := int64(st.Candidates) * int64(src.Rows) * int64(src.Cols)
	if read := st.CellsEvaluated - st.BoundCoordinates; read < 0 || read > cells {
		t.Fatalf("CellsEvaluated %d less bounds %d outside [0, %d]", st.CellsEvaluated, st.BoundCoordinates, cells)
	}
	if st.RefineAbandoned < 0 || st.RefineAbandoned > st.Candidates {
		t.Fatalf("RefineAbandoned %d of %d candidates", st.RefineAbandoned, st.Candidates)
	}
	if st.CoordinatesTotal != cells {
		t.Fatalf("CoordinatesTotal %d != %d", st.CoordinatesTotal, cells)
	}
	if st.PrunedCoordinates() < 0 {
		t.Fatalf("inconsistent derived stats: %+v", st)
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fuzzVec draws a candidate vector of entries in ±2·scale; a large scale
// stresses the estimator's dynamic range.
func fuzzVec(rng *rand.Rand, dim int, scale float64) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = (rng.Float64()*4 - 2) * scale
	}
	return v
}
