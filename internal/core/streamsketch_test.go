package core

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/lpnorm"
)

func TestNewHashSketcherValidation(t *testing.T) {
	if _, err := NewHashSketcher(1, 0, 8, 1); err == nil {
		t.Error("k=0: expected error")
	}
	if _, err := NewHashSketcher(1, 4, 0, 1); err == nil {
		t.Error("dim=0: expected error")
	}
	if _, err := NewHashSketcher(5, 4, 8, 1); err == nil {
		t.Error("bad p: expected error")
	}
	if strconv.IntSize == 64 {
		// Past 2³² positions the position bits of the hash key reach the
		// row bits: row 1 at position 0 would share row 0's entry at 2³².
		shift := 32
		if _, err := NewHashSketcher(1, 4, 1<<shift+1, 1); err == nil {
			t.Error("dim=2^32+1: expected error")
		}
	}
	h, err := NewHashSketcher(1.5, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.P() != 1.5 || h.K() != 4 || h.Dim() != 8 {
		t.Error("accessors wrong")
	}
}

func TestHashEntryDeterministic(t *testing.T) {
	a, _ := NewHashSketcher(1, 8, 100, 42)
	b, _ := NewHashSketcher(1, 8, 100, 42)
	for i := 0; i < 8; i++ {
		for pos := 0; pos < 100; pos += 13 {
			if a.Entry(i, pos) != b.Entry(i, pos) {
				t.Fatalf("Entry(%d,%d) differs across equal sketchers", i, pos)
			}
		}
	}
	c, _ := NewHashSketcher(1, 8, 100, 43)
	same := 0
	for pos := 0; pos < 100; pos++ {
		if a.Entry(0, pos) == c.Entry(0, pos) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d entries identical across different seeds", same)
	}
}

func TestHashEntryVariety(t *testing.T) {
	h, _ := NewHashSketcher(1, 4, 1000, 7)
	seen := map[float64]bool{}
	for pos := 0; pos < 1000; pos++ {
		seen[h.Entry(0, pos)] = true
	}
	if len(seen) < 995 {
		t.Errorf("only %d distinct entries of 1000", len(seen))
	}
}

func TestHashEntryPanics(t *testing.T) {
	h, _ := NewHashSketcher(1, 4, 8, 1)
	assertPanics(t, "row", func() { h.Entry(4, 0) })
	assertPanics(t, "pos", func() { h.Entry(0, 8) })
	assertPanics(t, "neg", func() { h.Entry(-1, 0) })
}

func TestStreamMatchesDirectSketch(t *testing.T) {
	const dim = 64
	h, _ := NewHashSketcher(1, 16, dim, 11)
	rng := rand.New(rand.NewPCG(1, 1))
	vec := make([]float64, dim)
	stream := h.NewStream()
	// Build the vector through a shuffled update stream, with some
	// positions updated repeatedly (turnstile semantics).
	for step := 0; step < 300; step++ {
		pos := rng.IntN(dim)
		delta := rng.NormFloat64() * 10
		vec[pos] += delta
		stream.Update(pos, delta)
	}
	if stream.Updates() != 300 {
		t.Errorf("Updates = %d", stream.Updates())
	}
	direct := h.Sketch(vec, nil)
	got := stream.Sketch()
	for i := range direct {
		if math.Abs(got[i]-direct[i]) > 1e-8*(1+math.Abs(direct[i])) {
			t.Fatalf("entry %d: stream %v vs direct %v", i, got[i], direct[i])
		}
	}
}

func TestStreamZeroDeltaIgnored(t *testing.T) {
	h, _ := NewHashSketcher(1, 4, 8, 1)
	s := h.NewStream()
	s.Update(3, 0)
	if s.Updates() != 0 {
		t.Error("zero delta should not count as an update")
	}
}

func TestStreamDistanceAccuracy(t *testing.T) {
	const dim, k = 64, 401
	for _, p := range []float64{1, 2} {
		h, err := NewHashSketcher(p, k, dim, 13)
		if err != nil {
			t.Fatal(err)
		}
		lp := lpnorm.MustP(p)
		rng := rand.New(rand.NewPCG(2, uint64(p)))
		a := make([]float64, dim)
		b := make([]float64, dim)
		sa := h.NewStream()
		sb := h.NewStream()
		for pos := range a {
			a[pos] = rng.NormFloat64() * 5
			b[pos] = rng.NormFloat64() * 5
			sa.Update(pos, a[pos])
			sb.Update(pos, b[pos])
		}
		exact := lp.Dist(a, b)
		est := sa.DistanceTo(sb)
		if rel := math.Abs(est-exact) / exact; rel > 0.3 {
			t.Errorf("p=%v: stream distance rel err %v (exact %v est %v)", p, rel, exact, est)
		}
		norm := sa.NormEstimate()
		exactNorm := lp.Norm(a)
		if rel := math.Abs(norm-exactNorm) / exactNorm; rel > 0.3 {
			t.Errorf("p=%v: stream norm rel err %v", p, rel)
		}
	}
}

func TestStreamDistanceIncomparablePanics(t *testing.T) {
	h1, _ := NewHashSketcher(1, 4, 8, 1)
	h2, _ := NewHashSketcher(1, 4, 8, 1)
	s1 := h1.NewStream()
	s2 := h2.NewStream()
	assertPanics(t, "cross-sketcher", func() { s1.DistanceTo(s2) })
}

func TestHashSketchPanicsWrongLengths(t *testing.T) {
	h, _ := NewHashSketcher(1, 4, 8, 1)
	assertPanics(t, "vec len", func() { h.Sketch(make([]float64, 7), nil) })
	assertPanics(t, "sketch len", func() { h.Distance(make([]float64, 4), make([]float64, 3)) })
}

func TestHashSketcherSparseVectorSkipsZeros(t *testing.T) {
	// Sparse verification path: zero entries contribute nothing, so a
	// sparse vector's sketch equals the stream of its nonzeros.
	const dim = 128
	h, _ := NewHashSketcher(2, 8, dim, 5)
	vec := make([]float64, dim)
	vec[3], vec[77], vec[100] = 4, -2, 9
	s := h.NewStream()
	s.Update(3, 4)
	s.Update(77, -2)
	s.Update(100, 9)
	direct := h.Sketch(vec, nil)
	for i := range direct {
		if math.Abs(direct[i]-s.Sketch()[i]) > 1e-10 {
			t.Fatalf("sparse mismatch at %d", i)
		}
	}
}
