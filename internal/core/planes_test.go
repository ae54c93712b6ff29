package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
	"repro/internal/table"
)

func randTable(rng *rand.Rand, rows, cols int) *table.Table {
	t := table.New(rows, cols)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64() * 100
	}
	return t
}

func TestAllPositionsFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tb := randTable(rng, 17, 23)
	sk, _ := NewSketcher(1, 5, 4, 6, 31)
	fast := sk.AllPositions(tb)
	slow := sk.AllPositionsNaive(tb)
	fr, fc := fast.rows, fast.cols
	sr, sc := slow.rows, slow.cols
	if fr != sr || fc != sc {
		t.Fatalf("position dims differ: %dx%d vs %dx%d", fr, fc, sr, sc)
	}
	if fr != 17-4+1 || fc != 23-6+1 {
		t.Fatalf("unexpected position dims %dx%d", fr, fc)
	}
	bufA := make([]float64, 5)
	bufB := make([]float64, 5)
	for r := 0; r < fr; r++ {
		for c := 0; c < fc; c++ {
			a := fast.SketchAt(r, c, bufA)
			b := slow.SketchAt(r, c, bufB)
			for i := range a {
				if !lanesNear(fast.lanes(r, c)[i], slow.lanes(r, c)[i], 1e-9*(1+math.Abs(b[i]))) {
					t.Fatalf("sketch at (%d,%d)[%d]: fft %v vs naive %v", r, c, i, a[i], b[i])
				}
			}
		}
	}
}

func TestPlaneSketchMatchesDirectSketch(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	tb := randTable(rng, 12, 12)
	sk, _ := NewSketcher(1.5, 7, 4, 4, 37)
	ps := sk.AllPositions(tb)
	for _, anchor := range [][2]int{{0, 0}, {3, 5}, {8, 8}} {
		rect := table.Rect{R0: anchor[0], C0: anchor[1], Rows: 4, Cols: 4}
		direct := sk.Sketch(tb.Linearize(rect, nil), nil)
		fromPlane := ps.SketchAt(anchor[0], anchor[1], nil)
		for i := range direct {
			if !laneNear(fromPlane[i], direct[i], 1e-9*(1+math.Abs(direct[i]))) {
				t.Fatalf("anchor %v entry %d: direct %v vs plane %v",
					anchor, i, direct[i], fromPlane[i])
			}
		}
	}
}

func TestPlaneDistanceApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	tb := randTable(rng, 20, 20)
	const k = 401
	for _, p := range []float64{1, 2} {
		sk, _ := NewSketcher(p, k, 8, 8, 41)
		ps := sk.AllPositions(tb)
		lp := lpnorm.MustP(p)
		a := table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8}
		b := table.Rect{R0: 10, C0: 9, Rows: 8, Cols: 8}
		exact := lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
		est := ps.Distance(a.R0, a.C0, b.R0, b.C0)
		if rel := math.Abs(est-exact) / exact; rel > 0.3 {
			t.Errorf("p=%v: plane distance rel err %v (exact %v est %v)", p, rel, exact, est)
		}
	}
}

func TestPlaneSetPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	tb := randTable(rng, 8, 8)
	sk, _ := NewSketcher(1, 3, 4, 4, 43)
	ps := sk.AllPositions(tb)
	assertPanics(t, "row oob", func() { ps.SketchAt(5, 0, nil) })
	assertPanics(t, "col oob", func() { ps.SketchAt(0, 5, nil) })
	assertPanics(t, "neg", func() { ps.SketchAt(-1, 0, nil) })
	assertPanics(t, "add oob", func() { ps.AddSketchAt(9, 0, make([]float64, 3)) })
	assertPanics(t, "add len", func() { ps.AddSketchAt(0, 0, make([]float64, 2)) })

	big, _ := NewSketcher(1, 3, 9, 9, 43)
	assertPanics(t, "tile too big", func() { big.AllPositions(tb) })
}

func TestAddSketchAtAccumulates(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	tb := randTable(rng, 8, 8)
	sk, _ := NewSketcher(1, 4, 2, 2, 47)
	ps := sk.AllPositions(tb)
	acc := make([]float64, 4)
	ps.AddSketchAt(0, 0, acc)
	ps.AddSketchAt(1, 1, acc)
	s1 := ps.SketchAt(0, 0, nil)
	s2 := ps.SketchAt(1, 1, nil)
	for i := range acc {
		if math.Abs(acc[i]-(s1[i]+s2[i])) > 1e-12 {
			t.Fatalf("accumulation wrong at %d: %v vs %v", i, acc[i], s1[i]+s2[i])
		}
	}
}

func TestPlaneSketcherAccessor(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	tb := randTable(rng, 8, 8)
	sk, _ := NewSketcher(1, 4, 2, 2, 51)
	ps := sk.AllPositions(tb)
	if ps.Sketcher() != sk {
		t.Error("Sketcher accessor mismatch")
	}
}
