package transform

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
)

var l2 = lpnorm.MustP(2)

func TestNewReducerValidation(t *testing.T) {
	if _, err := NewReducer(DCT, 0, 1); err == nil {
		t.Error("n=0: expected error")
	}
	if _, err := NewReducer(DCT, 8, 0); err == nil {
		t.Error("m=0: expected error")
	}
	if _, err := NewReducer(DCT, 8, 9); err == nil {
		t.Error("m>n for DCT: expected error")
	}
	if _, err := NewReducer(DFT, 8, 5); err == nil {
		t.Error("m>n/2 for DFT: expected error")
	}
	if _, err := NewReducer(Haar, 8, 9); err == nil {
		t.Error("m>padded for Haar: expected error")
	}
	if _, err := NewReducer(Method(99), 8, 2); err == nil {
		t.Error("unknown method: expected error")
	}
	r, err := NewReducer(DFT, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.n != 10 || r.OutputLen() != 8 || r.method != DFT {
		t.Error("accessors wrong")
	}
}

func TestMethodString(t *testing.T) {
	if DFT.String() != "DFT" || DCT.String() != "DCT" || Haar.String() != "Haar" {
		t.Error("String names wrong")
	}
	if Method(42).String() == "" {
		t.Error("unknown method String empty")
	}
}

func TestDCTFullPreservesL2(t *testing.T) {
	// Orthonormal DCT with all coefficients preserves the L2 distance
	// exactly (Parseval).
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 16
	r, err := NewReducer(DCT, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x, y := randVec(rng, n), randVec(rng, n)
		exact := l2.Dist(x, y)
		est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
		if math.Abs(est-exact) > 1e-9*(1+exact) {
			t.Fatalf("trial %d: DCT full dist %v, exact %v", trial, est, exact)
		}
	}
}

func TestHaarFullPreservesL2(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 16 // power of two: no padding effects
	r, err := NewReducer(Haar, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x, y := randVec(rng, n), randVec(rng, n)
		exact := l2.Dist(x, y)
		est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
		if math.Abs(est-exact) > 1e-9*(1+exact) {
			t.Fatalf("trial %d: Haar full dist %v, exact %v", trial, est, exact)
		}
	}
}

func TestHaarPaddedFullPreservesL2(t *testing.T) {
	// Zero-padding to a power of two must not change distances when all
	// coefficients are kept.
	rng := rand.New(rand.NewPCG(3, 3))
	const n = 13
	r, err := NewReducer(Haar, n, 16)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randVec(rng, n), randVec(rng, n)
	exact := l2.Dist(x, y)
	est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
	if math.Abs(est-exact) > 1e-9*(1+exact) {
		t.Fatalf("padded Haar dist %v, exact %v", est, exact)
	}
}

func TestTruncationNeverOverestimates(t *testing.T) {
	// Dropping orthonormal coefficients can only reduce the L2 distance
	// (for DFT the √2 correction makes this approximate, so allow slack).
	rng := rand.New(rand.NewPCG(4, 4))
	const n = 32
	for _, m := range []Method{DCT, Haar} {
		r, err := NewReducer(m, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			x, y := randVec(rng, n), randVec(rng, n)
			exact := l2.Dist(x, y)
			est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
			if est > exact+1e-9 {
				t.Fatalf("%v trial %d: truncated dist %v exceeds exact %v", m, trial, est, exact)
			}
		}
	}
}

func TestDFTExactForLowFrequencySignals(t *testing.T) {
	// Signals whose energy lives entirely below bin m are estimated
	// exactly thanks to the √2 correction.
	const n = 32
	r, err := NewReducer(DFT, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a1, a2, phase float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			th := 2 * math.Pi * float64(i) / n
			v[i] = a1*math.Cos(th+phase) + a2*math.Sin(2*th)
		}
		return v
	}
	x := mk(3, 1, 0.3)
	y := mk(-1, 2, 0.3)
	exact := l2.Dist(x, y)
	est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
	if math.Abs(est-exact) > 1e-9*(1+exact) {
		t.Fatalf("DFT low-freq dist %v, exact %v", est, exact)
	}
}

func TestSmoothSignalsWellApproximated(t *testing.T) {
	// The classic energy-concentration argument: smooth signals keep most
	// energy in the first coefficients, so few coefficients suffice.
	rng := rand.New(rand.NewPCG(5, 5))
	const n = 64
	smooth := func() []float64 {
		v := make([]float64, n)
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		for i := range v {
			x := float64(i) / n
			v[i] = a + b*x + c*math.Sin(2*math.Pi*x)
		}
		return v
	}
	for _, m := range []Method{DFT, DCT, Haar} {
		keep := 8
		r, err := NewReducer(m, n, keep)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			x, y := smooth(), smooth()
			exact := l2.Dist(x, y)
			if exact < 1e-9 {
				continue
			}
			est := r.Dist(r.Reduce(x, nil), r.Reduce(y, nil))
			if rel := math.Abs(est-exact) / exact; rel > 0.15 {
				t.Errorf("%v trial %d: smooth-signal rel err %v", m, trial, rel)
			}
		}
	}
}

func TestReduceLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	const n = 16
	for _, m := range []Method{DFT, DCT, Haar} {
		r, err := NewReducer(m, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		x, y := randVec(rng, n), randVec(rng, n)
		combo := make([]float64, n)
		for i := range combo {
			combo[i] = 2*x[i] - 3*y[i]
		}
		rx := r.Reduce(x, nil)
		ry := r.Reduce(y, nil)
		rc := r.Reduce(combo, nil)
		for i := range rc {
			want := 2*rx[i] - 3*ry[i]
			if math.Abs(rc[i]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%v: linearity violated at %d", m, i)
			}
		}
	}
}

func TestReducePanics(t *testing.T) {
	r, _ := NewReducer(DCT, 8, 4)
	assertPanics(t, "input len", func() { r.Reduce(make([]float64, 7), nil) })
	assertPanics(t, "dist len", func() { r.Dist(make([]float64, 3), make([]float64, 4)) })
}

// TestDFTFailsForL1 pins the paper's central criticism: truncated-DFT
// distance is an L2 construct and does not track L1 distances. Two pairs
// with very different L1 distances but matched L2 energy profiles get
// similar DFT estimates, while stable sketches (tested in core) track L1.
func TestDFTFailsForL1(t *testing.T) {
	const n = 64
	l1 := lpnorm.MustP(1)
	// x1/y1 differ by a spread-out difference (large L1, modest L2);
	// x2/y2 differ by one spike (small L1 for same L2 energy).
	diffSpread := make([]float64, n)
	for i := range diffSpread {
		diffSpread[i] = 1 // L1 = 64, L2 = 8
	}
	diffSpike := make([]float64, n)
	diffSpike[0] = 8 // L1 = 8, L2 = 8
	zero := make([]float64, n)
	r, err := NewReducer(DFT, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	estSpread := r.Dist(r.Reduce(diffSpread, nil), r.Reduce(zero, nil))
	estSpike := r.Dist(r.Reduce(diffSpike, nil), r.Reduce(zero, nil))
	l1Spread := l1.Dist(diffSpread, zero)
	l1Spike := l1.Dist(diffSpike, zero)
	// The true L1 distances differ 8x; if DFT estimates tracked L1, their
	// ratio would too. They do not — both hover near the (equal) L2 value.
	trueRatio := l1Spread / l1Spike
	estRatio := estSpread / estSpike
	if estRatio > trueRatio/2 {
		t.Errorf("DFT unexpectedly tracks L1: est ratio %v vs true ratio %v", estRatio, trueRatio)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 3
	}
	return out
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
