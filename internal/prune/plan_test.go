package prune

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

func TestPlanErrors(t *testing.T) {
	for _, delta := range []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := NewPlan(delta); err == nil {
			t.Errorf("NewPlan(%v): want error", delta)
		}
	}
	plan, err := NewPlan(0.05)
	if err != nil || plan.delta != 0.05 {
		t.Fatalf("NewPlan(0.05) = %v, %v", plan, err)
	}
	for _, tc := range []struct {
		plan    *Plan
		epsilon float64
		ok      bool
	}{
		{nil, 0, true},
		{plan, 0.1, true},
		{plan, math.Inf(1), true},
		{&Plan{}, 0.1, false}, // a zero Plan holds no valid δ
		{plan, -1, false},
		{nil, math.NaN(), false},
	} {
		if err := CheckKnobs(tc.plan, tc.epsilon); (err == nil) != tc.ok {
			t.Errorf("CheckKnobs(%v, %v) = %v, want ok=%v", tc.plan, tc.epsilon, err, tc.ok)
		}
	}
}

// TestPlanShortPrefixAtHalf: at p = 0.5 the (k, δ) tuples whose
// short-prefix thresholds once failed with an integrator message (a 400
// over HTTP for a valid mode=prune query), and then answered with a very
// loose threshold, answer now as every query does: the plan is its δ,
// validated, and the search over p = 0.5 candidates of k cells is the full
// scan's (index, power sum) bit for bit.
func TestPlanShortPrefixAtHalf(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5, 0x4a1f))
	for _, tc := range []struct {
		k     int
		delta float64
	}{
		{16, 0.05}, {44, 0.05}, {45, 0.05}, {64, 0.01}, {80, 0.01},
	} {
		plan, err := NewPlan(tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckKnobs(plan, 0.1); err != nil {
			t.Fatal(err)
		}
		q := randVec(rng, tc.k)
		cands := make([][]float64, 32)
		for i := range cands {
			cands[i] = randVec(rng, tc.k)
		}
		src := vecSource(0.5, tc.k, 1, q, cands, 3)
		wantIdx, wantSum := fullScan(src)
		idx, sum, _, err := Nearest(context.Background(), src, Config{})
		if err != nil || idx != wantIdx || math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Errorf("k=%d δ=%v: (%d, %v, %v), full scan (%d, %v)", tc.k, tc.delta, idx, sum, err, wantIdx, wantSum)
		}
	}
}
