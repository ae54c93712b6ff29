package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
	"repro/internal/quantile"
)

// fullScan is the scan estimate.nearest replaces, kept as its oracle: every
// estimate computed by the Go bodies, then the lowest index of the
// smallest one below +Inf.
func fullScan(e estimate, q, cands []float64, skip int) (int, float64) {
	defer cpu.WithoutAVX2()()
	best, bestD := -1, math.Inf(1)
	scratch := quantile.NewScratch(e.k)
	for i := 0; i*e.k < len(cands); i++ {
		if i == skip {
			continue
		}
		if d := e.dist(q, cands[i*e.k:(i+1)*e.k], scratch); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func cauchy(rng *rand.Rand) float64 { return math.Tan(math.Pi * (rng.Float64() - 0.5)) }

// Property: the bounded scan returns the full scan's index and the full
// scan's estimate bit for bit — with exact ties planted at different
// indices, a copy of the query among the candidates (estimate 0: every later
// candidate must still lose on strict <), a skipped index that would
// otherwise win, and candidate sets with no estimate below +Inf — through
// each encoding of the kernels, against the Go bodies' full scan.
func TestNearestMatchesFullScanProperty(t *testing.T) {
	cpu.EachEncoding(t, testNearestMatchesFullScan)
}

func testNearestMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	ctx := context.Background()
	for _, p := range []float64{1, 2} {
		for _, k := range []int{1, 2, 15, 16, 63, 64, 65} {
			e, _, err := newEstimate(p, k, EstimatorAuto)
			if err != nil {
				t.Fatal(err)
			}
			scratch := quantile.NewScratch(k)
			for trial := 0; trial < 200; trial++ {
				n := []int{1, 2, 255}[trial%3]
				q := make([]float64, k)
				cands := make([]float64, n*k)
				for i := range q {
					q[i] = cauchy(rng)
				}
				for i := range cands {
					cands[i] = cauchy(rng)
				}
				cand := func(i int) []float64 { return cands[i*k : (i+1)*k] }
				skip := -1
				switch trial % 7 {
				case 1: // the nearest candidate twice: the lower index wins
					i, j := rng.IntN(n), rng.IntN(n)
					for l := range q {
						cand(i)[l] = q[l] + 1e-3*cauchy(rng)
					}
					copy(cand(j), cand(i))
				case 2: // ties among ordinary candidates
					for r := 0; r < 8; r++ {
						copy(cand(rng.IntN(n)), cand(rng.IntN(n)))
					}
				case 3: // the query itself is a candidate
					copy(cand(rng.IntN(n)), q)
				case 4: // the query itself is a candidate, and skipped
					skip = rng.IntN(n)
					copy(cand(skip), q)
				case 5: // every lane of every candidate differs by +Inf
					for i := range q {
						q[i] = math.MaxFloat64
					}
					for i := range cands {
						cands[i] = -math.MaxFloat64
					}
				case 6: // all but one candidate at +Inf
					for i := range q {
						q[i] = math.MaxFloat64
					}
					for i := range cands {
						cands[i] = -math.MaxFloat64
					}
					for l, v := range q {
						cand(n - 1)[l] = v / 2
					}
				}
				wantI, wantD := fullScan(e, q, cands, skip)
				gotI, gotD, full, err := e.nearest(ctx, q, cands, skip, scratch)
				if err != nil {
					t.Fatal(err)
				}
				if gotI != wantI || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("p=%v k=%d n=%d trial %d: nearest = (%d, %v), full scan (%d, %v)",
						p, k, n, trial, gotI, gotD, wantI, wantD)
				}
				cnt := n
				if skip >= 0 {
					cnt--
				}
				if full < 0 || full > cnt || (p == 2 && full != cnt) {
					t.Fatalf("p=%v k=%d n=%d trial %d: %d of %d candidates computed in full", p, k, n, trial, full, cnt)
				}
			}
		}
	}
}

func TestNearestHonoursContext(t *testing.T) {
	e, _, err := newEstimate(1, 4, EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := e.nearest(ctx, make([]float64, 4), make([]float64, 8), -1, quantile.NewScratch(4)); err != context.Canceled {
		t.Fatalf("nearest on a cancelled context: err = %v", err)
	}
}
