package prune

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/quantile"
)

// selectScreen is the screen countScreen replaced, kept as its oracle: at
// every checkpoint whose threshold is finite it SELECTS the median of the
// prefix's absolute lane differences and compares. A NaN lane is a zero
// difference, as countScreen reads it.
func selectScreen(q, sk []float64, checkpoints []int, thr []float64) (int32, bool) {
	diffs := make([]float64, len(q))
	sel := quantile.NewScratch(len(q))
	for l := range q {
		if diffs[l] = math.Abs(q[l] - sk[l]); math.IsNaN(diffs[l]) {
			diffs[l] = 0
		}
	}
	for j, b := range checkpoints {
		if t := thr[j]; t <= math.MaxFloat64 && quantile.Median(diffs[:b], sel) > t {
			return int32(b), true
		}
	}
	return int32(len(q)), false
}

func checkpointsFor(k, block int) []int {
	var cps []int
	for b := block; b < k; b += block {
		cps = append(cps, b)
	}
	return append(cps, k)
}

// TestCountScreenMatchesSelection: over 10⁴ seeded (query, candidate,
// thresholds) triples the counting screen eliminates at exactly the
// checkpoint where the selected median first exceeds its threshold —
// thresholds drawn around the lanes' own scale, and then placed ON a lane,
// one ulp either side of it, and on the mean of the two central lanes of
// an even prefix, which is where a count and a selection could disagree.
func TestCountScreenMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0047, 1))
	trials, eliminated, boundary := 0, 0, 0
	for _, k := range []int{1, 7, 8, 16, 17, 64, 80} {
		for _, block := range []int{DefaultBlock(k), 1, 2, 5} {
			cps := checkpointsFor(k, block)
			keys := make([]uint64, k)
			for trial := 0; trial < 360; trial++ {
				q, sk := randVec(rng, k), randVec(rng, k)
				switch trial % 6 {
				case 1: // an all-equal sketch: every difference the same
					for l := range sk {
						sk[l] = q[l] + 0.5
					}
				case 2: // NaN and ±Inf lanes
					for n := 1 + rng.IntN(1+k/4); n > 0; n-- {
						sk[rng.IntN(k)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
					}
				case 3: // many exact ties among the differences
					for l := range sk {
						sk[l] = q[l] + float64(rng.IntN(3))
					}
				}
				diffs := make([]float64, k)
				for l := range diffs {
					diffs[l] = math.Abs(q[l] - sk[l])
				}
				thr := make([]float64, len(cps))
				for j, b := range cps {
					switch lane := diffs[rng.IntN(b)]; rng.IntN(8) {
					case 0:
						thr[j] = math.Inf(1) // a prefix too short to certify anything
					case 1:
						thr[j] = lane
					case 2:
						thr[j] = math.Nextafter(lane, 0)
					case 3:
						thr[j] = math.Nextafter(lane, math.Inf(1))
					case 4: // the mean of an even prefix's two central lanes
						s := append([]float64(nil), diffs[:b]...)
						for i := range s {
							if math.IsNaN(s[i]) {
								s[i] = 0
							}
						}
						thr[j] = quantile.MedianCopy(s)
						boundary++
					default:
						thr[j] = rng.Float64() * 3
					}
					if math.IsNaN(thr[j]) || thr[j] < 0 {
						thr[j] = 0
					}
				}
				wantLanes, wantPruned := selectScreen(q, sk, cps, thr)
				lanes, pruned := countScreen(q, sk, cps, thr, keys)
				if lanes != wantLanes || pruned != wantPruned {
					t.Fatalf("k=%d block=%d trial %d: counted (%d lanes, pruned %v), selected (%d, %v)\nthr %v\ndiffs %v",
						k, block, trial, lanes, pruned, wantLanes, wantPruned, thr, diffs)
				}
				trials++
				if pruned {
					eliminated++
				}
			}
		}
	}
	if trials < 10000 || eliminated < trials/10 || eliminated > trials*9/10 || boundary < 1000 {
		t.Errorf("%d trials, %d eliminated, %d boundary thresholds: the test is lopsided", trials, eliminated, boundary)
	}
}

// TestScreenKeepsTheReference: the candidate of the smallest full estimate
// survives even when a prefix of it exceeds its own band, and a reference
// that is not finite eliminates nobody.
func TestScreenKeepsTheReference(t *testing.T) {
	const k = 64
	plan, err := NewPlan(1, k, core.EstimatorMedian, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, k)
	// Candidate 0: its first 16 lanes are far, the rest at zero — a full
	// median of 0 (the reference), a 16-lane prefix beyond any band.
	near := make([]float64, k)
	for l := 0; l < 16; l++ {
		near[l] = 1e6
	}
	far := make([]float64, k)
	for l := range far {
		far[l] = 5
	}
	sketches := [][]float64{near, far, far}
	src := Source{
		K: k, N: len(sketches), QSketch: q,
		Sketch:        func(i int) []float64 { return sketches[i] },
		CompoundSlack: 1, Scale: 1, Skip: -1,
	}
	var st Stats
	sc := getScratch(src.N, 1)
	defer putScratch(sc)
	if err := screen(context.Background(), &src, Config{Plan: plan}, 1, sc, &st); err != nil {
		t.Fatal(err)
	}
	if len(sc.cands) != 1 || sc.cands[0] != 0 {
		t.Errorf("survivors %v, want the reference alone", sc.cands)
	}

	// Every lane infinite: no finite estimate, no reference, no elimination.
	for _, sk := range sketches {
		for l := range sk {
			sk[l] = math.Inf(1)
		}
	}
	sc.cands, st = sc.cands[:0], Stats{}
	if err := screen(context.Background(), &src, Config{Plan: plan}, 1, sc, &st); err != nil {
		t.Fatal(err)
	}
	if len(sc.cands) != 3 {
		t.Errorf("survivors %v without a finite reference, want all three", sc.cands)
	}
}

// TestL2ScreenMatchesFullEstimates: the L2 screen leaves most lanes unread
// in both passes and still decides what reading them all decides — the
// reference is the candidate of the smallest full root-mean-square
// difference, and a candidate falls at the first checkpoint whose prefix
// estimate exceeds that reference's threshold. NaN and ±Inf lanes, exact
// ties, a skipped index and every worker count included.
func TestL2ScreenMatchesFullEstimates(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x12, 2))
	pruned, unread := 0, int64(0)
	for trial := 0; trial < 400; trial++ {
		k := []int{1, 7, 16, 17, 64, 80}[trial%6]
		plan, err := NewPlan(2, k, core.EstimatorL2, []int{0, 1, 5}[trial%3], 0.05)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.IntN(40)
		q := randVec(rng, k)
		sketches := make([][]float64, n)
		for i := range sketches {
			switch rng.IntN(8) {
			case 0: // near the query
				sketches[i] = append([]float64(nil), q...)
				for l := range sketches[i] {
					sketches[i][l] += 0.05 * rng.NormFloat64()
				}
			case 1:
				if i > 0 {
					sketches[i] = sketches[rng.IntN(i)] // exact tie
					break
				}
				fallthrough
			default:
				sketches[i] = randVec(rng, k)
				if rng.IntN(2) == 0 {
					for l := range sketches[i] {
						sketches[i][l] *= 20
					}
				}
				if rng.IntN(10) == 0 {
					sketches[i][rng.IntN(k)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
				}
			}
		}
		src := Source{
			K: k, N: n, QSketch: q, Skip: rng.IntN(n+1) - 1,
			Sketch:        func(i int) []float64 { return sketches[i] },
			CompoundSlack: 1, Estimator: core.EstimatorL2,
		}
		cfg := Config{Plan: plan, Epsilon: 0.1}

		// The oracle reads every lane of every candidate.
		prefixes := func(sk []float64) []float64 {
			var sumsq float64
			var out []float64
			for l := range q {
				d := q[l] - sk[l]
				sumsq += d * d
				if j := len(out); l+1 == plan.checkpoints[j] {
					out = append(out, math.Sqrt(sumsq/float64(l+1)))
				}
			}
			return out
		}
		ref, best := -1, math.Inf(1)
		for i, sk := range sketches {
			if e := prefixes(sk); i != src.Skip && e[len(e)-1] < best {
				ref, best = i, e[len(e)-1]
			}
		}
		var want []int
		for i, sk := range sketches {
			if i == src.Skip {
				continue
			}
			keep := true
			if r := plan.pruneRef(best, cfg.Epsilon, 1); i != ref && r <= math.MaxFloat64 {
				for j, e := range prefixes(sk) {
					if e > plan.hi[j]*r {
						keep = false
						break
					}
				}
			}
			if keep {
				want = append(want, i)
			}
		}

		var st1 Stats
		for workers := 1; workers <= 3; workers++ {
			var st Stats
			sc := getScratch(n, 1)
			if err := screen(context.Background(), &src, cfg, workers, sc, &st); err != nil {
				t.Fatal(err)
			}
			got := append([]int(nil), sc.cands...)
			putScratch(sc)
			if len(got) != len(want) {
				t.Fatalf("trial %d workers %d: survivors %v, want %v", trial, workers, got, want)
			}
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("trial %d workers %d: survivors %v, want %v", trial, workers, got, want)
				}
			}
			full := int64(st.Candidates) * int64(k)
			if st.LanesEvaluated < int64(st.Candidates)*int64(plan.checkpoints[0]) || st.LanesEvaluated > full {
				t.Fatalf("trial %d: %d lanes consumed of %d", trial, st.LanesEvaluated, full)
			}
			if workers == 1 {
				st1 = st
				pruned += st.Candidates - len(got)
				unread += full - st.LanesEvaluated
			} else if st != st1 {
				t.Fatalf("trial %d: %d workers changed the statistics: %+v vs %+v", trial, workers, st, st1)
			}
		}
	}
	if pruned < 1000 || unread < 10000 {
		t.Errorf("%d candidates eliminated, %d lanes left unread: the test is lopsided", pruned, unread)
	}
}
