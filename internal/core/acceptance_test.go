package core

// Statistical acceptance test for the median estimator at fractional p
// (Theorems 1–2): with sketch size k = KForAccuracy(ε, δ), the estimate
// median|s(x)−s(y)|/B(p) lies within (1±ε)·‖x−y‖p with probability at
// least 1−δ. Over many independent trials the empirical in-band fraction
// must therefore clear 1−δ up to binomial sampling slack. The RNG is
// fully seeded, so the test is reproducible — it never flakes, it only
// fails if the estimator (sampling, B(p), or the median) regresses.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
	"repro/internal/stable"
)

func TestMedianEstimatorMeetsTheoremBound(t *testing.T) {
	const (
		trials = 200
		eps    = 0.25
		delta  = 0.05
		dim    = 8 // tiles are dim×dim
	)
	// The Theorem 1–2 guarantee: each trial succeeds w.p. ≥ 1−δ = 0.95.
	// Allow three binomial standard deviations of slack
	// (σ = sqrt(δ(1−δ)/trials) ≈ 0.0154) so the threshold tests the
	// bound, not the luck of one seed: 0.95 − 3σ ≈ 0.9038.
	minFraction := (1 - delta) - 3*math.Sqrt(delta*(1-delta)/trials)

	for _, p := range []float64{0.5, 1.25} {
		t.Run(fmt.Sprintf("p=%v", p), func(t *testing.T) {
			// The exact p-dependent sketch size: the generic
			// KForAccuracy constant is far too small at p = 0.5, where
			// the stable density flattens near the median quantile.
			k, err := KForAccuracyAtP(p, eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			lp := lpnorm.MustP(p)
			within := 0
			for trial := 0; trial < trials; trial++ {
				// Independent sketch randomness per trial: the theorem's
				// probability is over the random matrices.
				sk, err := NewSketcher(p, k, dim, dim, 0xACC0+uint64(trial))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(0xDA7A, uint64(trial)))
				x := make([]float64, dim*dim)
				y := make([]float64, dim*dim)
				for i := range x {
					x[i] = rng.Float64()*4 - 2
					y[i] = rng.Float64()*4 - 2
				}
				exact := lp.Dist(x, y)
				est := sk.Distance(sk.Sketch(x, nil), sk.Sketch(y, nil))
				if est >= (1-eps)*exact && est <= (1+eps)*exact {
					within++
				}
			}
			frac := float64(within) / trials
			t.Logf("p=%v: k=%d, %d/%d trials within (1±%.2f)·exact (%.1f%%, need ≥ %.1f%%)",
				p, k, within, trials, eps, 100*frac, 100*minFraction)
			if frac < minFraction {
				t.Errorf("p=%v: only %.3f of trials within (1±%.2f)·‖x−y‖p, below the Theorem 1–2 bound %.3f",
					p, frac, eps, minFraction)
			}
		})
	}
}

// TestKForAccuracyAtPMeetsExactBound holds the size KForAccuracyAtP
// picks to its promise exactly rather than over trials. The odd-k median
// lane lies above (1+ε)·d·B(p) when at most (k−1)/2 lanes fall below
// that value, and below (1−ε)·d·B(p) when more than (k−1)/2 fall below
// that one: two binomial tails over the CDF of |X|, whose sum must not
// exceed δ.
func TestKForAccuracyAtPMeetsExactBound(t *testing.T) {
	const eps, delta = 0.25, 0.05
	for _, p := range []float64{0.5, 1, 1.5} {
		k, err := KForAccuracyAtP(p, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		d, err := stable.New(p)
		if err != nil {
			t.Fatal(err)
		}
		below := func(f float64) float64 { // P(|X| < f·B(p))
			v, err := d.CDF(f * stable.MedianAbs(p))
			if err != nil {
				t.Fatal(err)
			}
			return 2*v - 1
		}
		m := (k - 1) / 2
		if miss := binomCDF(k, m, below(1+eps)) + 1 - binomCDF(k, m, below(1-eps)); miss > delta {
			t.Errorf("p=%v: k=%d sized for (ε, δ) = (%v, %v) misses (1±ε)·d with probability %.4f", p, k, eps, delta, miss)
		}
	}
}
