package core

// Theorems 1–2 and 5 counted over pool lanes. TestMedianEstimatorMeetsTheoremBound
// draws a fresh Sketcher a trial and sketches directly; the server answers
// from pool lanes, which come out of the FFT round trip, are rounded to
// the stored element, and share one random matrix across every position
// of a plane set — so two answers of one pool are not independent trials,
// only pools of different seeds are. This test therefore builds one small
// pool a seed and asks each pool three questions:
//
//	(i)   an exactly dyadic pair: |est − d| ≤ ε·d (Theorems 1–2), on all
//	      k lanes at ε = 0.25 — k is Chernoff's for it — and on the first
//	      32 and 64 lanes (64 is the k the server runs) at the ε the exact
//	      binomial tails of the median certify there (certifiedEps);
//	(ii)  the same pair: d inside the exact order-statistic interval for
//	      the median lane, [|Δ|_(r), |Δ|_(s)]/B(p) over the lanes Δ of the
//	      difference of the pair's pool sketches, ranks r < s from the
//	      Bin(n, ½) tails at δ/2 a side (Cohen's per-query coverage),
//	      counted on the first 32 and 64 lanes and on all k;
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
// Counts (i) and (iii) must reach 1 − δ less three binomial standard
// deviations over the seeds, the slack the per-trial acceptance test
// uses. The ε (i) certifies on 32 and 64 lanes is the ε a sketch answer
// of the served k carries (DESIGN.md §4). (ii) is held to its own nominal coverage on both sides: the
// discrete ranks make the interval on n lanes cover with probability
// c_n ≥ 1 − δ (medianCoverage), and its count over the seeds must lie in
// c_n ± 3σ_n, σ_n = √(c_n(1 − c_n)/seeds). The interval needs only i.i.d.
// lanes whose absolute value has median d·B(p), so a band that covers d
// on every seed is as wrong as one that rarely does; the seed count keeps
// c_n + 3σ_n below 1 on every prefix, so that ceiling is reachable. Every
// seed's verdict is deterministic, so a candidate lane encoding is
// judged by running the same counts over its lanes.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/lpnorm"
	"repro/internal/parallel"
	"repro/internal/stable"
	"repro/internal/table"
)

// theoremCounts is what one p's seeds scored.
type theoremCounts struct {
	within               [len(coverageLanes)]int     // (i) on each lane prefix
	eps                  [len(coverageLanes)]float64 // (i)'s ε on each prefix
	covered              [len(coverageLanes)]int     // (ii) on each lane prefix
	nominal              [len(coverageLanes)]float64 // (ii)'s coverage c_n on each prefix
	envelope             int                         // (iii): both compound pairs inside the true envelope
	statedMiss           int                         // compound answers above the stated 4(1 + ε)·d
	centerRatio, dyadErr []float64
}

const (
	theoremEps   = 0.25
	theoremDelta = 0.05
	theoremTile  = 2 // log₂ of the pooled 4 × 4 size
	theoremSide  = 16
)

// coverageLanes are the lane prefixes (i) and (ii) are counted on; 0 is
// all k. 64 is the k the server runs.
var coverageLanes = [...]int{32, 64, 0}

// seedScore is what one seed's pool scored.
type seedScore struct {
	within               [len(coverageLanes)]bool // (i) on each lane prefix
	inside               bool                     // (iii)
	covered              [len(coverageLanes)]bool // (ii) on each lane prefix
	statedMiss           int                      // compound answers above 4(1 + ε)·d
	centerRatio, dyadErr float64
	err                  error
}

// countTheorems builds one pool a seed at p over a 16 × 16 table of
// seeded normal values and scores (i)–(iii). Each seed draws from its own
// generator, so the seeds are scored concurrently and the counts do not
// depend on the schedule.
func countTheorems(t testing.TB, p float64, seeds int) theoremCounts {
	k, err := KForAccuracyAtP(p, theoremEps, theoremDelta)
	if err != nil {
		t.Fatal(err)
	}
	var c theoremCounts
	var lanes, lo, hi [len(coverageLanes)]int // each prefix and (ii)'s ranks on it
	for i, n := range coverageLanes {
		if n == 0 {
			n = k
		}
		lanes[i] = n
		lo[i], hi[i] = medianRanks(n, theoremDelta)
		c.nominal[i] = medianCoverage(n, lo[i])
		c.eps[i] = theoremEps
		if coverageLanes[i] != 0 {
			c.eps[i] = certifiedEps(t, p, n, theoremDelta)
		}
	}
	scores := make([]seedScore, seeds)
	parallel.For(0, seeds, func(i int) {
		scores[i] = scoreSeed(p, k, uint64(i+1), lanes, lo, hi, c.eps)
	})
	for _, sc := range scores {
		if sc.err != nil {
			t.Fatal(sc.err)
		}
		for i := range coverageLanes {
			if sc.within[i] {
				c.within[i]++
			}
			if sc.covered[i] {
				c.covered[i]++
			}
		}
		if sc.inside {
			c.envelope++
		}
		c.statedMiss += sc.statedMiss
		c.centerRatio = append(c.centerRatio, sc.centerRatio)
		c.dyadErr = append(c.dyadErr, sc.dyadErr)
	}
	return c
}

// scoreSeed builds seed's pool and asks it (i)–(iii), (i) and (ii) on
// each lane prefix, (i) at eps and (ii) with the ranks lo and hi.
func scoreSeed(p float64, k int, seed uint64, lanes, lo, hi [len(coverageLanes)]int, eps [len(coverageLanes)]float64) (sc seedScore) {
	lp := lpnorm.MustP(p)
	scale := stable.MedianAbs(p)
	stated := 4 * (1 + theoremEps)
	truth := math.Pow(4, 1/p) * (1 + theoremEps)
	const tile, comp = 1 << theoremTile, 6 // a 6 × 6 rectangle is four 4 × 4 corners
	rng := rand.New(rand.NewPCG(seed, 0x7e0))
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
	pl, err := NewPool(tb, p, k, seed, PoolOptions{
		MinLogRows: theoremTile, MaxLogRows: theoremTile, MinLogCols: theoremTile, MaxLogCols: theoremTile,
	})
	if err != nil {
		return seedScore{err: err}
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
	measure := func(a, b table.Rect) (est, d float64, err error) {
		est, err = pl.Distance(a, b)
		return est, lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil)), err
	}

	a, b := pair(tile, tile)
	est, d, err := measure(a, b)
	if err != nil {
		return seedScore{err: err}
	}
	sc.dyadErr = math.Abs(est-d) / d
	sa, err := pl.Sketch(a, nil)
	if err != nil {
		return seedScore{err: err}
	}
	sb, err := pl.Sketch(b, nil)
	if err != nil {
		return seedScore{err: err}
	}
	for i, n := range lanes {
		abs := make([]float64, n)
		for j := range abs {
			abs[j] = math.Abs(sa[j] - sb[j])
		}
		sort.Float64s(abs)
		sc.covered[i] = abs[lo[i]-1] <= d*scale && d*scale <= abs[hi[i]-1]
		e := est
		if coverageLanes[i] != 0 {
			e = (abs[(n-1)/2] + abs[n/2]) / 2 / scale // the estimator on n lanes
		}
		sc.within[i] = math.Abs(e-d) <= eps[i]*d
	}

	sc.inside = true
	for n, ab := range [2][2]table.Rect{{}, {ca, cb}} {
		a, b := ab[0], ab[1]
		if n == 0 {
			a, b = pair(comp, comp)
		}
		est, d, err := measure(a, b)
		if err != nil {
			return seedScore{err: err}
		}
		if n == 1 {
			sc.centerRatio = est / d
		}
		sc.inside = sc.inside && (1-theoremEps)*d <= est && est <= truth*d
		if est > stated*d {
			sc.statedMiss++
		}
	}
	return sc
}

func TestTheoremsCountedOverPoolLanes(t *testing.T) {
	const seeds = 450
	sigma := func(c float64) float64 { return math.Sqrt(c * (1 - c) / seeds) }
	floor := (1 - theoremDelta) - 3*sigma(1-theoremDelta)
	for _, p := range []float64{0.5, 1, 2} {
		t.Run(fmt.Sprintf("p=%v", p), func(t *testing.T) {
			t.Parallel()
			c := countTheorems(t, p, seeds)
			t.Logf("p=%v: (i) %v at ε %.4f, (ii) %v on the first %v lanes (0 = all; nominal %.3f), (iii) %d of %d seeds (floor %.3f); %d compound answers above the stated 4(1+ε)·d; center pair est/d median %.2f (4^{1/p} = %.0f); exact-dyadic error p90 %.4f",
				p, c.within, c.eps, c.covered, coverageLanes, c.nominal, c.envelope, seeds, floor, c.statedMiss, quantileOf(c.centerRatio, 0.5), math.Pow(4, 1/p), quantileOf(c.dyadErr, 0.9))
			for i, got := range c.within {
				if frac := float64(got) / seeds; frac < floor {
					t.Errorf("p=%v: (i) |est − d| ≤ %.4f·d over the first %d lanes (0 = all) on %d of %d seeds (%.3f), below %.3f", p, c.eps[i], coverageLanes[i], got, seeds, frac, floor)
				}
			}
			if frac := float64(c.envelope) / seeds; frac < floor {
				t.Errorf("p=%v: (iii) Theorem 5 envelope on %d of %d seeds (%.3f), below %.3f", p, c.envelope, seeds, frac, floor)
			}
			for i, got := range c.covered {
				cn := c.nominal[i]
				lo, hi := cn-3*sigma(cn), cn+3*sigma(cn)
				if hi >= 1 {
					t.Fatalf("p=%v: (ii)'s band %.4f–%.4f over the first %d lanes (0 = all) reaches 1 at %d seeds; raise the seed count", p, lo, hi, coverageLanes[i], seeds)
				}
				if frac := float64(got) / seeds; frac < lo || frac > hi {
					t.Errorf("p=%v: (ii) covers d on %d of %d seeds (%.3f) over the first %d lanes (0 = all), outside %.3f–%.3f (nominal %.3f)",
						p, got, seeds, frac, coverageLanes[i], lo, hi, cn)
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

// certifiedEps returns the least ε, to 1e-4, at which the exact binomial
// tails bound the failure of the median estimator on n |stable(p)| lanes
// by δ: with F the CDF of |X| and B(p) its median, the estimate exceeds
// (1 + ε)·d only when at most ⌊n/2⌋ lanes lie below (1 + ε)·B — the
// upper central order statistic above it — and falls short of (1 − ε)·d
// only when at least ⌈n/2⌉ lie below (1 − ε)·B, so the sum of those two
// Bin(n, F(·)) tails bounds P(|est − d| > ε·d). For even n the estimate
// is the mean of the two central order statistics, and the bound counts
// either leaving the band. From ε = 1 on only the upper tail can fail.
func certifiedEps(t testing.TB, p float64, n int, delta float64) float64 {
	dist, err := stable.New(p)
	if err != nil {
		t.Fatal(err)
	}
	b := stable.MedianAbs(p)
	cdfAbs := func(x float64) float64 {
		v, err := dist.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		return 2*v - 1
	}
	fails := func(eps float64) float64 {
		f := binomCDF(n, n/2, cdfAbs((1+eps)*b))
		if eps < 1 {
			f += 1 - binomCDF(n, (n+1)/2-1, cdfAbs((1-eps)*b))
		}
		return f
	}
	lo, hi := 0.0, 1.0
	for fails(hi) > delta {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1e-4 {
		if mid := (lo + hi) / 2; fails(mid) <= delta {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// medianRanks returns the ranks r < s (from 1) of the exact 1 − δ
// interval [x_(r), x_(s)] for the median of n i.i.d. draws: the count N
// of draws below the median is Bin(n, ½), x_(r) lies above it only when
// N < r and x_(s) below it only when N ≥ s, each at most δ/2.
func medianRanks(n int, delta float64) (r, s int) {
	for binomCDF(n, r, 0.5) <= delta/2 {
		r++
	}
	return r, n + 1 - r
}

// medianCoverage returns the probability that medianRanks' interval on n
// draws, ranks r and n + 1 − r, covers the median: P(r ≤ N ≤ n − r) for
// N ~ Bin(n, ½), which by symmetry is 1 − 2·P(N ≤ r − 1).
func medianCoverage(n, r int) float64 { return 1 - 2*binomCDF(n, r-1, 0.5) }

// binomCDF returns P(Bin(n, q) ≤ m).
func binomCDF(n, m int, q float64) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := 0; i <= m; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(ln - li - lr + float64(i)*math.Log(q) + float64(n-i)*math.Log1p(-q))
	}
	return sum
}

// quantileOf returns the q-quantile of xs, the order statistic at ⌊q·n⌋.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)))]
}
