package core

// Theorems 1–2 and 5 counted over pool lanes. TestMedianEstimatorMeetsTheoremBound
// draws a fresh Sketcher a trial and sketches directly; the server answers
// from pool lanes, which come out of the FFT round trip, are rounded to
// the stored element, and share one random matrix across every position
// of a plane set — so two answers of one pool are not independent trials,
// only pools of different seeds are. This test therefore builds one small
// pool a seed and asks each pool three questions:
//
//	(i)   an exactly dyadic pair: |est − d| ≤ ε·d (Theorems 1–2);
//	(ii)  the same pair: d inside the order-statistic interval the pool's
//	      own k lanes certify at confidence 1 − δ, [est/hi, est/lo] from
//	      MedianPrefixBounds (L2PrefixBounds at p = 2) at b = k, δ/2 a side
//	      (Cohen's per-query coverage);
//	(iii) two compound pairs: est inside Theorem 5's envelope.
//
// The envelope. A compound sketch sums four independent dyadic sketches
// of overlapping corners c, so its estimate is (1 ± ε) times
// D = (Σ_c ‖x_c − y_c‖_p^p)^{1/p}. Every cell of the rectangle lies in one
// to four corners, so d ≤ D ≤ 4^{1/p}·d and the envelope is
// [(1 − ε)·d, 4^{1/p}(1 + ε)·d] — the stated 4(1 + ε) for p ≥ 1, wider for
// p < 1. The second compound pair differs only in the cells all four
// corners share, where D = 4^{1/p}·d exactly: at p = 0.5 it lands near
// 16·d, outside the stated 4(1 + ε) on nearly every seed, inside the true
// envelope. The first is a random pair.
//
// Each count must reach 1 − δ less three binomial standard deviations
// over the seeds, the slack the per-trial acceptance test uses. Every
// seed's verdict is deterministic, so a candidate lane encoding is
// judged by running the same counts over its lanes.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/lpnorm"
	"repro/internal/table"
)

// theoremCounts is what one p's seeds scored.
type theoremCounts struct {
	within, covered      int // (i), (ii) on the exactly dyadic pair
	envelope             int // (iii): both compound pairs inside the true envelope
	statedMiss           int // compound answers above the stated 4(1 + ε)·d
	centerRatio, dyadErr []float64
}

const (
	theoremEps   = 0.25
	theoremDelta = 0.05
	theoremTile  = 2 // log₂ of the pooled 4 × 4 size
	theoremSide  = 16
)

// countTheorems builds one pool a seed at p over a 16 × 16 table of
// seeded normal values and scores (i)–(iii).
func countTheorems(t testing.TB, p float64, seeds int) theoremCounts {
	k, err := KForAccuracyAtP(p, theoremEps, theoremDelta)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := MedianPrefixBounds(p, k, theoremDelta/2)
	if p == 2 {
		lo, hi, err = L2PrefixBounds(k, theoremDelta/2)
	}
	if err != nil {
		t.Fatal(err)
	}
	lp := lpnorm.MustP(p)
	stated := 4 * (1 + theoremEps)
	truth := math.Pow(4, 1/p) * (1 + theoremEps)
	const tile, comp = 1 << theoremTile, 6 // a 6 × 6 rectangle is four 4 × 4 corners
	var c theoremCounts
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x7e0))
		tb := randTable(rng, theoremSide, theoremSide)
		// The center pair: b is a copy of a whose 2 × 2 block shared by all
		// four corners differs.
		ca := table.Rect{R0: 0, C0: 0, Rows: comp, Cols: comp}
		cb := table.Rect{R0: theoremSide - comp, C0: theoremSide - comp, Rows: comp, Cols: comp}
		for r := 0; r < comp; r++ {
			for col := 0; col < comp; col++ {
				v := tb.At(ca.R0+r, ca.C0+col)
				if r >= comp-tile && r < tile && col >= comp-tile && col < tile {
					v += rng.NormFloat64() * 100
				}
				tb.Set(cb.R0+r, cb.C0+col, v)
			}
		}
		pl, err := NewPool(tb, p, k, uint64(seed), PoolOptions{
			MinLogRows: theoremTile, MaxLogRows: theoremTile, MinLogCols: theoremTile, MaxLogCols: theoremTile,
		})
		if err != nil {
			t.Fatal(err)
		}
		pair := func(h, w int) (table.Rect, table.Rect) {
			at := func() table.Rect {
				return table.Rect{R0: rng.IntN(theoremSide - h + 1), C0: rng.IntN(theoremSide - w + 1), Rows: h, Cols: w}
			}
			a, b := at(), at()
			for a == b {
				b = at()
			}
			return a, b
		}
		measure := func(a, b table.Rect) (est, d float64) {
			if est, err = pl.Distance(a, b); err != nil {
				t.Fatal(err)
			}
			return est, lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
		}

		est, d := measure(pair(tile, tile))
		c.dyadErr = append(c.dyadErr, math.Abs(est-d)/d)
		if math.Abs(est-d) <= theoremEps*d {
			c.within++
		}
		if lo*d <= est && est <= hi*d {
			c.covered++
		}

		inside := true
		for n, ab := range [2][2]table.Rect{{}, {ca, cb}} {
			a, b := ab[0], ab[1]
			if n == 0 {
				a, b = pair(comp, comp)
			}
			est, d := measure(a, b)
			if n == 1 {
				c.centerRatio = append(c.centerRatio, est/d)
			}
			inside = inside && (1-theoremEps)*d <= est && est <= truth*d
			if est > stated*d {
				c.statedMiss++
			}
		}
		if inside {
			c.envelope++
		}
	}
	return c
}

func TestTheoremsCountedOverPoolLanes(t *testing.T) {
	const seeds = 200
	floor := (1 - theoremDelta) - 3*math.Sqrt(theoremDelta*(1-theoremDelta)/seeds)
	for _, p := range []float64{0.5, 1, 2} {
		t.Run(fmt.Sprintf("p=%v", p), func(t *testing.T) {
			c := countTheorems(t, p, seeds)
			t.Logf("p=%v: (i) %d, (ii) %d, (iii) %d of %d seeds (floor %.3f); %d compound answers above the stated 4(1+ε)·d; center pair est/d median %.2f (4^{1/p} = %.0f); exact-dyadic error p90 %.4f",
				p, c.within, c.covered, c.envelope, seeds, floor, c.statedMiss, quantileOf(c.centerRatio, 0.5), math.Pow(4, 1/p), quantileOf(c.dyadErr, 0.9))
			for _, n := range []struct {
				name string
				got  int
			}{{"(i) |est − d| ≤ ε·d", c.within}, {"(ii) coverage", c.covered}, {"(iii) Theorem 5 envelope", c.envelope}} {
				if frac := float64(n.got) / seeds; frac < floor {
					t.Errorf("p=%v: %s on %d of %d seeds (%.3f), below %.3f", p, n.name, n.got, seeds, frac, floor)
				}
			}
			// At p ≥ 1 the true envelope is the stated one. Below it the
			// center pair is the counterexample DESIGN records.
			if p < 1 && c.statedMiss < seeds/2 {
				t.Errorf("p=%v: only %d compound answers above 4(1+ε)·d; the center pair should exceed it on most seeds", p, c.statedMiss)
			}
		})
	}
}

// quantileOf returns the q-quantile of xs, the order statistic at ⌊q·n⌋.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)))]
}
