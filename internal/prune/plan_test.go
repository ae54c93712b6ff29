package prune

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestPlanThresholdsShrinkWithPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    float64
		est  core.Estimator
	}{
		{"median_p1", 1, core.EstimatorMedian},
		{"median_p0.5", 0.5, core.EstimatorMedian},
		{"l2", 2, core.EstimatorL2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewPlan(tc.p, 256, tc.est, 32, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			cps := pl.Checkpoints()
			if got := cps[len(cps)-1]; got != 256 {
				t.Fatalf("last checkpoint %d, want k=256", got)
			}
			prev := math.Inf(1)
			for j := range cps {
				hi := pl.HiAt(j)
				if !(hi >= 1) {
					t.Errorf("checkpoint %d: hi = %v < 1 (estimator must be allowed its own mean)", cps[j], hi)
				}
				if hi > prev {
					t.Errorf("checkpoint %d: hi = %v grew from %v; more evidence must not loosen the cutoff", cps[j], hi, prev)
				}
				prev = hi
			}
			if lo := pl.LoK(); !(lo > 0 && lo < 1) {
				t.Errorf("LoK = %v, want in (0, 1) for k=256", lo)
			}
		})
	}
}

func TestPlanTinyPrefixIsDegenerate(t *testing.T) {
	// One coordinate certifies nothing at delta = 0.05: gammaReq > ½.
	pl, err := NewPlan(1, 2, core.EstimatorMedian, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if hi := pl.HiAt(0); !math.IsInf(hi, 1) {
		t.Errorf("hi at prefix 1 = %v, want +Inf (too little evidence)", hi)
	}
	if !pl.degenerate() {
		t.Error("plan with k=2 at delta=0.05 should be degenerate (never eliminates)")
	}
	if ref := pl.pruneRef(1.0, 0.1, 1); !math.IsInf(ref, 1) {
		t.Errorf("degenerate plan pruneRef = %v, want +Inf", ref)
	}
}

// TestPlanShortPrefixAtHalf: at p = 0.5 a prefix with γ_req just under ½
// asks for a quantile level so close to 1 that the heavy tail carries it
// past x = 10⁵, where Fourier inversion of the stable CDF runs out of
// pieces; the tuples used to fail with an integrator message (a 400 over
// HTTP for a valid mode=prune query). The far tail is now summed from
// its series (stable.upperTail), so every such prefix gets its — very
// loose, but finite and correct — threshold.
func TestPlanShortPrefixAtHalf(t *testing.T) {
	for _, tc := range []struct {
		k, block int
		delta    float64
	}{
		{16, 1, 0.05}, {44, 1, 0.05}, {45, 1, 0.05}, {64, 1, 0.01}, {80, 2, 0.01},
	} {
		pl, err := NewPlan(0.5, tc.k, core.EstimatorAuto, tc.block, tc.delta)
		if err != nil {
			t.Errorf("NewPlan(0.5, k=%d, block=%d, delta=%v): %v", tc.k, tc.block, tc.delta, err)
			continue
		}
		// Thresholds still only tighten with evidence, and the full
		// sketch still certifies something.
		prev := math.Inf(1)
		for j, b := range pl.Checkpoints() {
			if hi := pl.HiAt(j); !(hi >= 1) || hi > prev {
				t.Errorf("k=%d block=%d: hi at prefix %d = %v after %v", tc.k, tc.block, b, hi, prev)
			} else {
				prev = hi
			}
		}
		if math.IsInf(prev, 1) {
			t.Errorf("k=%d block=%d: no checkpoint certifies anything", tc.k, tc.block)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cases := []struct {
		p     float64
		k     int
		est   core.Estimator
		delta float64
	}{
		{1, 0, core.EstimatorMedian, 0.05}, // k < 1
		{1, 8, core.EstimatorMedian, 0},    // delta out of range
		{1, 8, core.EstimatorMedian, 1},
		{0.2, 8, core.EstimatorMedian, 0.05}, // below the analytic CDF range
		{1, 8, core.EstimatorL2, 0.05},       // L2 needs p = 2
	}
	for _, tc := range cases {
		if _, err := NewPlan(tc.p, tc.k, tc.est, 0, tc.delta); err == nil {
			t.Errorf("NewPlan(p=%v, k=%d, est=%v, delta=%v): want error", tc.p, tc.k, tc.est, tc.delta)
		}
	}
}

// The prefix bounds are the inverse of KForAccuracyAtP: a sketch sized
// for (ε, δ) must certify, at its own full length, a deviation factor
// no looser than 1+ε.
func TestPrefixBoundsInvertKForAccuracy(t *testing.T) {
	for _, p := range []float64{0.5, 1, 1.5} {
		const eps, delta = 0.25, 0.05
		k, err := core.KForAccuracyAtP(p, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		_, hi, err := core.MedianPrefixBounds(p, k, delta)
		if err != nil {
			t.Fatal(err)
		}
		if hi > 1+eps+1e-9 {
			t.Errorf("p=%v: k=%d sized for ε=%v certifies only hi=%v", p, k, eps, hi)
		}
	}
}

func TestL2PrefixBoundsBracketOne(t *testing.T) {
	lo, hi, err := core.L2PrefixBounds(128, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo > 0 && lo < 1 && hi > 1 && !math.IsInf(hi, 1)) {
		t.Fatalf("L2PrefixBounds(128, 0.01) = (%v, %v), want 0 < lo < 1 < hi < Inf", lo, hi)
	}
	// More evidence tightens both sides.
	lo2, hi2, err := core.L2PrefixBounds(512, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo2 > lo && hi2 < hi) {
		t.Errorf("bounds did not tighten: b=128 (%v, %v) vs b=512 (%v, %v)", lo, hi, lo2, hi2)
	}
}

func TestDefaultBlock(t *testing.T) {
	if b := DefaultBlock(4); b != 8 {
		t.Errorf("DefaultBlock(4) = %d, want floor 8", b)
	}
	if b := DefaultBlock(256); b != 32 {
		t.Errorf("DefaultBlock(256) = %d, want 32", b)
	}
}
