package fft

// Tests for the planned frequency-domain correlation engine: the shared
// table spectrum, the packed-pair kernel trick, and the strided
// write-through extraction are each cross-checked against the O(N·M)
// naive correlation and against the unplanned FFT path on the degenerate
// shapes where index arithmetic is most likely to break — 1×N and N×1
// tables, kernel == table, odd and non-power-of-two dims, and odd k
// (the unpaired trailing kernel).

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// correlationCase is one (table, kernel) shape of the degenerate-shape
// golden suite.
type correlationCase struct{ n, m, ka, kb int }

// correlate is one kernel's valid correlation through p, in a plane of
// its own.
func correlate(p *Plan2D, kernel []float64, ka, kb int) []float64 {
	outRows, outCols := p.OutDims(ka, kb)
	out := make([]float64, outRows*outCols)
	p.CorrelatePairValid(kernel, nil, ka, kb, out, 1, nil, 0)
	return out
}

func planGoldenCases() []correlationCase {
	return []correlationCase{
		{1, 17, 1, 5},  // 1×N table, pr == 1: no column transform at all
		{1, 16, 1, 16}, // 1×N, kernel spans the whole table: single output
		{23, 1, 7, 1},  // N×1 table, pc == 1
		{16, 1, 16, 1}, // N×1, kernel == table
		{8, 8, 8, 8},   // kernel == table: one dot product
		{9, 13, 4, 4},  // non-power-of-two data
		{7, 11, 3, 5},  // everything odd
		{4, 4, 1, 1},   // scalar kernel
		{5, 31, 5, 2},  // kernel spans full height
		{32, 6, 2, 6},  // kernel spans full width
		{2, 2, 2, 2},   // smallest non-trivial square
		{1, 1, 1, 1},   // single cell
	}
}

func TestPlanCorrelateMatchesNaiveOnDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	for _, c := range planGoldenCases() {
		data := randSlice(rng, c.n*c.m)
		kernel := randSlice(rng, c.ka*c.kb)
		plan := NewPlan2D(data, c.n, c.m)
		got := correlate(plan, kernel, c.ka, c.kb)
		want := CrossCorrelateValidNaive(data, c.n, c.m, kernel, c.ka, c.kb)
		if len(got) != len(want) {
			t.Fatalf("%+v: len %d vs %d", c, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("%+v: out[%d] = %v, naive %v", c, i, got[i], want[i])
			}
		}
	}
}

func TestPlanCorrelatePairMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 22))
	for _, c := range planGoldenCases() {
		data := randSlice(rng, c.n*c.m)
		kernA := randSlice(rng, c.ka*c.kb)
		kernB := randSlice(rng, c.ka*c.kb)
		plan := NewPlan2D(data, c.n, c.m)
		outRows, outCols := plan.OutDims(c.ka, c.kb)
		positions := outRows * outCols
		gotA := make([]float64, positions)
		gotB := make([]float64, positions)
		plan.CorrelatePairValid(kernA, kernB, c.ka, c.kb, gotA, 1, gotB, 1)
		wantA := CrossCorrelateValidNaive(data, c.n, c.m, kernA, c.ka, c.kb)
		wantB := CrossCorrelateValidNaive(data, c.n, c.m, kernB, c.ka, c.kb)
		for i := range gotA {
			if math.Abs(gotA[i]-wantA[i]) > 1e-7*(1+math.Abs(wantA[i])) {
				t.Fatalf("%+v: A[%d] = %v, naive %v", c, i, gotA[i], wantA[i])
			}
			if math.Abs(gotB[i]-wantB[i]) > 1e-7*(1+math.Abs(wantB[i])) {
				t.Fatalf("%+v: B[%d] = %v, naive %v", c, i, gotB[i], wantB[i])
			}
		}
	}
}

// The strided write-through must land out[pos] at dst[pos*stride] and
// touch nothing else — this is the contract the position-major PlaneSet
// lanes rely on.
func TestPlanCorrelateStridedWriteThrough(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 23))
	const n, m, ka, kb = 10, 12, 3, 4
	data := randSlice(rng, n*m)
	kernA := randSlice(rng, ka*kb)
	kernB := randSlice(rng, ka*kb)
	plan := NewPlan2D(data, n, m)
	outRows, outCols := plan.OutDims(ka, kb)
	positions := outRows * outCols

	contigA := make([]float64, positions)
	contigB := make([]float64, positions)
	plan.CorrelatePairValid(kernA, kernB, ka, kb, contigA, 1, contigB, 1)

	// Interleave both lanes in one backing array, as a PlaneSet does:
	// lane 0 at offset 0 stride 3, lane 1 at offset 1 stride 3, and a
	// sentinel lane at offset 2 that must remain untouched.
	const stride = 3
	backing := make([]float64, positions*stride)
	for i := range backing {
		backing[i] = math.Inf(1) // sentinel
	}
	plan.CorrelatePairValid(kernA, kernB, ka, kb, backing[0:], stride, backing[1:], stride)
	for pos := 0; pos < positions; pos++ {
		if backing[pos*stride] != contigA[pos] {
			t.Fatalf("lane A pos %d: %v != contiguous %v", pos, backing[pos*stride], contigA[pos])
		}
		if backing[pos*stride+1] != contigB[pos] {
			t.Fatalf("lane B pos %d: %v != contiguous %v", pos, backing[pos*stride+1], contigB[pos])
		}
		if !math.IsInf(backing[pos*stride+2], 1) {
			t.Fatalf("sentinel lane clobbered at pos %d: %v", pos, backing[pos*stride+2])
		}
	}
}

// Strided and contiguous extraction must produce identical floats (same
// correlation, different destination addressing).
func TestPlanStridedMatchesContiguousBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	const n, m, ka, kb = 9, 7, 2, 3
	data := randSlice(rng, n*m)
	kern := randSlice(rng, ka*kb)
	plan := NewPlan2D(data, n, m)
	outRows, outCols := plan.OutDims(ka, kb)
	positions := outRows * outCols
	contig := make([]float64, positions)
	plan.CorrelatePairValid(kern, nil, ka, kb, contig, 1, nil, 0)
	strided := make([]float64, positions*5)
	plan.CorrelatePairValid(kern, nil, ka, kb, strided, 5, nil, 0)
	for pos := range contig {
		if math.Float64bits(strided[pos*5]) != math.Float64bits(contig[pos]) {
			t.Fatalf("pos %d: strided %v != contiguous %v", pos, strided[pos*5], contig[pos])
		}
	}
}

func TestPlanMatchesUnplannedPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	for _, c := range []correlationCase{{16, 8, 3, 5}, {9, 13, 4, 4}, {1, 32, 1, 4}} {
		data := randSlice(rng, c.n*c.m)
		kernel := randSlice(rng, c.ka*c.kb)
		planned := correlate(NewPlan2D(data, c.n, c.m), kernel, c.ka, c.kb)
		unplanned := CrossCorrelateValidUnplanned(data, c.n, c.m, kernel, c.ka, c.kb)
		for i := range planned {
			if math.Abs(planned[i]-unplanned[i]) > 1e-7*(1+math.Abs(unplanned[i])) {
				t.Fatalf("%+v: planned[%d] = %v, unplanned %v", c, i, planned[i], unplanned[i])
			}
		}
	}
}

// One plan shared by many goroutines must produce the same floats as
// serial use — the spectrum is read-only and every correlation gets
// private scratch. Run under -race this also proves the sharing is sound.
func TestPlanConcurrentUseIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 26))
	const n, m, ka, kb, kernels = 24, 24, 5, 5, 8
	data := randSlice(rng, n*m)
	kerns := make([][]float64, kernels)
	for i := range kerns {
		kerns[i] = randSlice(rng, ka*kb)
	}
	plan := NewPlan2D(data, n, m)
	want := make([][]float64, kernels)
	for i, k := range kerns {
		want[i] = correlate(plan, k, ka, kb)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range kerns {
				got := correlate(plan, k, ka, kb)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("kernel %d entry %d: concurrent %v != serial %v",
							i, j, got[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestTableSpectrumCountPerPlan(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	before := TableSpectrumCount()
	p := NewPlan2D(data, 2, 3)
	if d := TableSpectrumCount() - before; d != 1 {
		t.Fatalf("NewPlan2D computed %d spectra, want 1", d)
	}
	// Correlations against an existing plan must not transform the table
	// again, no matter how many run.
	before = TableSpectrumCount()
	for i := 0; i < 5; i++ {
		correlate(p, []float64{1, 0, 0, 1}, 2, 2)
	}
	if d := TableSpectrumCount() - before; d != 0 {
		t.Fatalf("planned correlations computed %d table spectra, want 0", d)
	}
}

func TestPlanPanics(t *testing.T) {
	data := randSlice(rand.New(rand.NewPCG(27, 27)), 4*4)
	plan := NewPlan2D(data, 4, 4)
	kern := []float64{1, 2, 3, 4}
	out := make([]float64, 9)
	cases := map[string]func(){
		"nil data":        func() { NewPlan2D(nil, 2, 2) },
		"bad dims":        func() { NewPlan2D(data, 0, 4) },
		"len mismatch":    func() { NewPlan2D(data, 3, 4) },
		"kernel too big":  func() { plan.CorrelatePairValid(make([]float64, 25), nil, 5, 5, out, 1, nil, 0) },
		"kernel len":      func() { plan.CorrelatePairValid(kern, nil, 2, 3, out, 1, nil, 0) },
		"kernel B len":    func() { plan.CorrelatePairValid(kern, []float64{1}, 2, 2, out, 1, out, 1) },
		"zero stride":     func() { plan.CorrelatePairValid(kern, nil, 2, 2, out, 0, nil, 0) },
		"dst too short":   func() { plan.CorrelatePairValid(kern, nil, 2, 2, make([]float64, 8), 1, nil, 0) },
		"dst B too short": func() { plan.CorrelatePairValid(kern, kern, 2, 2, out, 1, make([]float64, 2), 1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzPlanCorrelateAgainstNaive drives the planned engine (both the
// paired and unpaired variants) against the naive reference over random
// shapes, including the degenerate 1×N / N×1 / kernel==table boundaries.
func FuzzPlanCorrelateAgainstNaive(f *testing.F) {
	f.Add(uint16(4), uint16(4), uint16(2), uint16(2), uint64(1), true)
	f.Add(uint16(1), uint16(31), uint16(1), uint16(7), uint64(2), false)
	f.Add(uint16(17), uint16(1), uint16(17), uint16(1), uint64(3), true)
	f.Add(uint16(9), uint16(13), uint16(9), uint16(13), uint64(4), false)
	f.Fuzz(func(t *testing.T, nRaw, mRaw, kaRaw, kbRaw uint16, seed uint64, paired bool) {
		n := int(nRaw)%48 + 1
		m := int(mRaw)%48 + 1
		ka := int(kaRaw)%n + 1
		kb := int(kbRaw)%m + 1
		rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
		data := randSlice(rng, n*m)
		kernA := randSlice(rng, ka*kb)
		plan := NewPlan2D(data, n, m)
		outRows, outCols := plan.OutDims(ka, kb)
		positions := outRows * outCols
		gotA := make([]float64, positions)
		var kernB, gotB []float64
		if paired {
			kernB = randSlice(rng, ka*kb)
			gotB = make([]float64, positions)
		}
		plan.CorrelatePairValid(kernA, kernB, ka, kb, gotA, 1, gotB, 1)
		wantA := CrossCorrelateValidNaive(data, n, m, kernA, ka, kb)
		for i := range gotA {
			if math.Abs(gotA[i]-wantA[i]) > 1e-6*(1+math.Abs(wantA[i])) {
				t.Fatalf("n=%d m=%d ka=%d kb=%d: A[%d] = %v, naive %v",
					n, m, ka, kb, i, gotA[i], wantA[i])
			}
		}
		if paired {
			wantB := CrossCorrelateValidNaive(data, n, m, kernB, ka, kb)
			for i := range gotB {
				if math.Abs(gotB[i]-wantB[i]) > 1e-6*(1+math.Abs(wantB[i])) {
					t.Fatalf("n=%d m=%d ka=%d kb=%d: B[%d] = %v, naive %v",
						n, m, ka, kb, i, gotB[i], wantB[i])
				}
			}
		}
	})
}
