package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

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

// TestPrefixBoundsShrinkWithPrefix: over prefixes of 32, 64, … 256 lanes
// at δ = 0.05/16, the upper factor is at least 1 (an estimator is allowed
// its own mean) and never grows with more evidence, and the full 256
// lanes certify a lower factor in (0, 1).
func TestPrefixBoundsShrinkWithPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    float64
	}{
		{"median_p1", 1},
		{"median_p0.5", 0.5},
		{"l2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bounds := func(b int, delta float64) (float64, float64) {
				t.Helper()
				var lo, hi float64
				var err error
				if tc.p == 2 {
					lo, hi, err = core.L2PrefixBounds(b, delta)
				} else {
					lo, hi, err = core.MedianPrefixBounds(tc.p, b, delta)
				}
				if err != nil {
					t.Fatal(err)
				}
				return lo, hi
			}
			prev := math.Inf(1)
			for b := 32; b <= 256; b += 32 {
				_, hi := bounds(b, 0.05/16)
				if !(hi >= 1) {
					t.Errorf("prefix %d: hi = %v < 1 (estimator must be allowed its own mean)", b, hi)
				}
				if hi > prev {
					t.Errorf("prefix %d: hi = %v grew from %v; more evidence must not loosen the bound", b, hi, prev)
				}
				prev = hi
			}
			if lo, _ := bounds(256, 0.05/2); !(lo > 0 && lo < 1) {
				t.Errorf("lo at 256 lanes = %v, want in (0, 1)", lo)
			}
		})
	}
}

// TestMedianPrefixBoundsOneLaneIsDegenerate: one lane certifies nothing
// under the median (γ_req > ½), so the bounds degenerate to (0, +Inf).
func TestMedianPrefixBoundsOneLaneIsDegenerate(t *testing.T) {
	for _, p := range []float64{1, 0.5} {
		lo, hi, err := core.MedianPrefixBounds(p, 1, 0.05/2)
		if err != nil {
			t.Fatal(err)
		}
		if lo != 0 || !math.IsInf(hi, 1) {
			t.Errorf("p=%v, one lane: (%v, %v), want (0, +Inf) — too little evidence", p, lo, hi)
		}
	}
}
