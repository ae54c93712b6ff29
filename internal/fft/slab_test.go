package fft

import (
	"math"
	"math/rand/v2"
	"testing"
)

// A slab plan must be bit-identical to a plan built over an explicitly
// copied (and zero-extended) slab: the incremental pool-maintenance
// path's byte-identity guarantee rests on exactly this equivalence.
func TestSlabPlanMatchesCopiedSlabBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31))
	const n, fullCols = 9, 23
	data := randSlice(rng, n*fullCols)
	const ka, kb = 3, 4
	kern := randSlice(rng, ka*kb)

	cases := []struct{ c0, slabCols int }{
		{0, fullCols}, // degenerate: the whole table
		{0, 8},        // leading slab
		{5, 8},        // interior slab
		{16, 8},       // tail slab, one zero-extended column
		{20, 8},       // tail slab, mostly zero-extended
		{22, 8},       // one real column
		{7, kb},       // narrowest slab the kernel fits
		{fullCols - 1, kb},
	}
	for _, c := range cases {
		slab := NewPlan2DSlab(data, n, fullCols, c.c0, c.slabCols)

		// Reference: copy the slab out by hand, zero-extending.
		copied := make([]float64, n*c.slabCols)
		for r := 0; r < n; r++ {
			for j := 0; j < c.slabCols; j++ {
				if c.c0+j < fullCols {
					copied[r*c.slabCols+j] = data[r*fullCols+c.c0+j]
				}
			}
		}
		ref := NewPlan2D(copied, n, c.slabCols)

		got := correlate(slab, kern, ka, kb)
		want := correlate(ref, kern, ka, kb)
		if len(got) != len(want) {
			t.Fatalf("c0=%d slabCols=%d: output lengths %d vs %d", c.c0, c.slabCols, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("c0=%d slabCols=%d: bit mismatch at %d: %v vs %v",
					c.c0, c.slabCols, i, got[i], want[i])
			}
		}
	}
}

// The restricted harvest must reproduce the full harvest bit for bit on
// the columns it keeps: the FFT round trip is shared, only the write
// loop differs.
func TestCorrelateSubHarvestMatchesFullBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 32))
	const n, m, ka, kb = 11, 29, 4, 5
	data := randSlice(rng, n*m)
	kernA := randSlice(rng, ka*kb)
	kernB := randSlice(rng, ka*kb)

	p := NewPlan2D(data, n, m)
	outRows, outCols := p.OutDims(ka, kb)

	fullA := make([]float64, outRows*outCols)
	fullB := make([]float64, outRows*outCols)
	p.CorrelatePairValid(kernA, kernB, ka, kb, fullA, 1, fullB, 1)

	for _, subCols := range []int{1, 3, outCols} {
		// Harvest into a strided lane layout: column stride 3, rows packed
		// at subCols*3 apart, mimicking a plane-set lane write-through.
		const cs = 3
		subA := make([]float64, outRows*subCols*cs)
		subB := make([]float64, outRows*subCols*cs)
		p.CorrelatePairValidSub(kernA, kernB, ka, kb, subCols,
			subA, subCols*cs, cs, subB, subCols*cs, cs)
		for r := 0; r < outRows; r++ {
			for c := 0; c < subCols; c++ {
				ga, wa := subA[r*subCols*cs+c*cs], fullA[r*outCols+c]
				gb, wb := subB[r*subCols*cs+c*cs], fullB[r*outCols+c]
				if math.Float64bits(ga) != math.Float64bits(wa) {
					t.Fatalf("subCols=%d: A mismatch at (%d,%d): %v vs %v", subCols, r, c, ga, wa)
				}
				if math.Float64bits(gb) != math.Float64bits(wb) {
					t.Fatalf("subCols=%d: B mismatch at (%d,%d): %v vs %v", subCols, r, c, gb, wb)
				}
			}
		}
	}
}

// Every CorrelatePairValid-family call counts exactly once, whether it
// carries one kernel or a packed pair — the unit the incremental-append
// savings criterion is measured in.
func TestCorrelationCountPerCall(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 33))
	const n, m, ka, kb = 8, 8, 2, 2
	p := NewPlan2D(randSlice(rng, n*m), n, m)
	kernA := randSlice(rng, ka*kb)
	kernB := randSlice(rng, ka*kb)
	outRows, outCols := p.OutDims(ka, kb)
	dst := make([]float64, outRows*outCols)
	dst2 := make([]float64, outRows*outCols)

	before := CorrelationCount()
	p.CorrelatePairValid(kernA, nil, ka, kb, dst, 1, nil, 0)
	if got := CorrelationCount() - before; got != 1 {
		t.Fatalf("single-kernel call counted %d correlations, want 1", got)
	}
	before = CorrelationCount()
	p.CorrelatePairValid(kernA, kernB, ka, kb, dst, 1, dst2, 1)
	if got := CorrelationCount() - before; got != 1 {
		t.Fatalf("packed-pair call counted %d correlations, want 1", got)
	}
	before = CorrelationCount()
	p.CorrelatePairValidSub(kernA, nil, ka, kb, 1, dst, 1, 1, nil, 0, 0)
	if got := CorrelationCount() - before; got != 1 {
		t.Fatalf("sub-harvest call counted %d correlations, want 1", got)
	}
}

func TestSlabAndSubPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 34))
	const n, m = 6, 10
	data := randSlice(rng, n*m)
	p := NewPlan2D(data, n, m)
	kern := randSlice(rng, 2*2)
	dst := make([]float64, 5*9)

	for name, fn := range map[string]func(){
		"slab start past table": func() { NewPlan2DSlab(data, n, m, m, 4) },
		"negative slab start":   func() { NewPlan2DSlab(data, n, m, -1, 4) },
		"zero slab width":       func() { NewPlan2DSlab(data, n, m, 0, 0) },
		"bad data length":       func() { NewPlan2DSlab(data[:5], n, m, 0, 4) },
		"zero harvest width":    func() { p.CorrelatePairValidSub(kern, nil, 2, 2, 0, dst, 9, 1, nil, 0, 0) },
		"harvest past valid":    func() { p.CorrelatePairValidSub(kern, nil, 2, 2, 10, dst, 10, 1, nil, 0, 0) },
		"short sub dst":         func() { p.CorrelatePairValidSub(kern, nil, 2, 2, 9, dst[:10], 9, 1, nil, 0, 0) },
		"zero col stride":       func() { p.CorrelatePairValidSub(kern, nil, 2, 2, 9, dst, 9, 0, nil, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
