package fft

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// correlateLanes drives CorrelateBlockValidSub the way a pool build does:
// lanes [0, len(kernels)) of a position-major destination, one block of
// BlockLanes at a time.
func correlateLanes(t testing.TB, p *Plan2D, kernels [][]float64, ka, kb, subCols int,
	dst []float32, rowStride, colStride int) {
	t.Helper()
	for lo := 0; lo < len(kernels); lo += BlockLanes {
		hi := min(lo+BlockLanes, len(kernels))
		if err := p.CorrelateBlockValidSub(context.Background(), kernels[lo:hi], ka, kb, subCols,
			dst[lo:], rowStride, colStride); err != nil {
			t.Fatal(err)
		}
	}
}

// The block harvest must land in every lane exactly the bits the pair
// harvest computes for that kernel, rounded once to float32 — at full
// blocks, short blocks and a trailing unpaired kernel — and must touch
// nothing else: the destination interleaves the lanes with sentinel
// lanes, sentinel columns past the harvest and a sentinel gap between
// rows.
func TestBlockHarvestMatchesPairHarvestBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 71))
	const n, m, ka, kb = 11, 29, 4, 5
	p := NewPlan2D(randSlice(rng, n*m), n, m)
	outRows, outCols := p.OutDims(ka, kb)
	sentinel := math.Float32frombits(0x7fc0_beef)
	isSentinel := func(v float32) bool { return math.Float32bits(v) == math.Float32bits(sentinel) }

	for _, lanes := range []int{1, 2, BlockLanes - 1, BlockLanes, BlockLanes + 1,
		4*BlockLanes - 1, 4 * BlockLanes, 4*BlockLanes + 1} {
		kernels := make([][]float64, lanes)
		for i := range kernels {
			kernels[i] = randSlice(rng, ka*kb)
		}
		for _, subCols := range []int{1, 2, outCols - 1, outCols} {
			// Reference: each pair through the pair entry point, contiguous.
			want := make([][]float64, lanes)
			for i := 0; i < lanes; i += 2 {
				want[i] = make([]float64, outRows*subCols)
				var kernB, dstB []float64
				if i+1 < lanes {
					kernB, dstB = kernels[i+1], make([]float64, outRows*subCols)
					want[i+1] = dstB
				}
				p.CorrelatePairValidSub(kernels[i], kernB, ka, kb, subCols,
					want[i], subCols, 1, dstB, subCols, 1)
			}

			colStride := lanes + 3                 // three sentinel lanes per position
			rowStride := (subCols+2)*colStride + 5 // two sentinel positions and a gap per row
			const lead = 4                         // sentinel elements before lane 0
			dst := make([]float32, lead+outRows*rowStride)
			for i := range dst {
				dst[i] = sentinel
			}
			correlateLanes(t, p, kernels, ka, kb, subCols, dst[lead:], rowStride, colStride)

			for i, v := range dst {
				o := i - lead
				r, c, lane := o/rowStride, o%rowStride/colStride, o%rowStride%colStride
				if o < 0 || c >= subCols || lane >= lanes {
					if !isSentinel(v) {
						t.Fatalf("lanes=%d subCols=%d: element %d (row %d col %d lane %d) outside the harvest was written: %v",
							lanes, subCols, i, r, c, lane, v)
					}
					continue
				}
				if w := float32(want[lane][r*subCols+c]); math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("lanes=%d subCols=%d: lane %d at (%d,%d) = %v, pair harvest %v",
						lanes, subCols, lane, r, c, v, w)
				}
			}
		}
	}
}

// A block is counted per round trip, polls its context before each one,
// and a cancelled block writes nothing.
func TestBlockCountsRoundTripsAndStopsOnCancel(t *testing.T) {
	rng := rand.New(rand.NewPCG(72, 72))
	const n, m, ka, kb = 8, 8, 2, 2
	p := NewPlan2D(randSlice(rng, n*m), n, m)
	outRows, outCols := p.OutDims(ka, kb)
	kernels := make([][]float64, BlockLanes)
	for i := range kernels {
		kernels[i] = randSlice(rng, ka*kb)
	}
	dst := make([]float32, outRows*outCols*BlockLanes)
	for lanes, trips := range map[int]int64{1: 1, 2: 1, 5: 3, BlockLanes: BlockLanes / 2} {
		before := CorrelationCount()
		if err := p.CorrelateBlockValidSub(context.Background(), kernels[:lanes], ka, kb, outCols,
			dst, outCols*BlockLanes, BlockLanes); err != nil {
			t.Fatal(err)
		}
		if got := CorrelationCount() - before; got != trips {
			t.Errorf("block of %d kernels counted %d round trips, want %d", lanes, got, trips)
		}
	}

	clear(dst)
	polls := 0
	ctx := pollCtx{Context: context.Background(), err: func() error {
		if polls++; polls > 2 {
			return context.Canceled
		}
		return nil
	}}
	before := CorrelationCount()
	err := p.CorrelateBlockValidSub(ctx, kernels, ka, kb, outCols, dst, outCols*BlockLanes, BlockLanes)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := CorrelationCount() - before; got != 2 {
		t.Errorf("cancelled at the third poll after %d round trips, want 2", got)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("cancelled block wrote dst[%d] = %v", i, v)
		}
	}
}

// pollCtx is a context whose Err is scripted by the test.
type pollCtx struct {
	context.Context
	err func() error
}

func (c pollCtx) Err() error { return c.err() }

func TestBlockPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 73))
	const n, m = 6, 10
	p := NewPlan2D(randSlice(rng, n*m), n, m)
	kern := randSlice(rng, 2*2)
	two := [][]float64{kern, kern}
	dst := make([]float32, 5*9*2)
	ctx := context.Background()
	for name, fn := range map[string]func(){
		"no kernels":         func() { p.CorrelateBlockValidSub(ctx, nil, 2, 2, 9, dst, 18, 2) },
		"too many kernels":   func() { p.CorrelateBlockValidSub(ctx, make([][]float64, BlockLanes+1), 2, 2, 9, dst, 18, 2) },
		"kernel length":      func() { p.CorrelateBlockValidSub(ctx, [][]float64{kern, kern[:3]}, 2, 2, 9, dst, 18, 2) },
		"kernel too big":     func() { p.CorrelateBlockValidSub(ctx, two, 7, 2, 9, dst, 18, 2) },
		"harvest past valid": func() { p.CorrelateBlockValidSub(ctx, two, 2, 2, 10, dst, 20, 2) },
		"lanes overlap":      func() { p.CorrelateBlockValidSub(ctx, two, 2, 2, 9, dst, 18, 1) },
		"zero row stride":    func() { p.CorrelateBlockValidSub(ctx, two, 2, 2, 9, dst, 0, 2) },
		"short dst":          func() { p.CorrelateBlockValidSub(ctx, two, 2, 2, 9, dst[:len(dst)-1], 18, 2) },
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

// FuzzCorrelateBlockAgainstNaive drives the block entry point over slab
// plans against the naive reference on the zero-extended slab. The seeds
// are the degenerate shapes: one-row and one-column tables, kernel =
// table, padded dims 1, 2 and 4 (shorter than one general radix-4
// stage), slabs starting at the last column and running past the edge.
func FuzzCorrelateBlockAgainstNaive(f *testing.F) {
	//    rows        cols        c0         slab        ka         kb         lanes     sub        seed
	f.Add(uint8(0), uint8(16), uint8(0), uint8(16), uint8(0), uint8(4), uint8(7), uint8(3), uint64(1))   // 1-row table
	f.Add(uint8(22), uint8(0), uint8(0), uint8(0), uint8(6), uint8(0), uint8(2), uint8(0), uint64(2))    // 1-column table
	f.Add(uint8(7), uint8(7), uint8(0), uint8(7), uint8(7), uint8(7), uint8(0), uint8(0), uint64(3))     // kernel = table
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(4), uint8(0), uint64(4))     // padded 1×1
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(1), uint8(7), uint8(1), uint64(5))     // padded 2×2
	f.Add(uint8(3), uint8(2), uint8(0), uint8(2), uint8(1), uint8(1), uint8(6), uint8(1), uint64(6))     // padded 4×4
	f.Add(uint8(8), uint8(19), uint8(19), uint8(7), uint8(3), uint8(3), uint8(8), uint8(4), uint64(7))   // slab of one real column
	f.Add(uint8(12), uint8(30), uint8(20), uint8(15), uint8(4), uint8(7), uint8(5), uint8(8), uint64(8)) // slab past the edge
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, c0Raw, slabRaw, kaRaw, kbRaw, lanesRaw, subRaw uint8, seed uint64) {
		rows, cols := int(rowsRaw)%40+1, int(colsRaw)%40+1
		c0 := int(c0Raw) % cols
		slab := int(slabRaw)%40 + 1
		ka, kb := int(kaRaw)%rows+1, int(kbRaw)%slab+1
		lanes := int(lanesRaw)%BlockLanes + 1
		rng := rand.New(rand.NewPCG(seed, seed^0xB10C))
		data := randSlice(rng, rows*cols)
		p := NewPlan2DSlab(data, rows, cols, c0, slab)
		outRows, outCols := p.OutDims(ka, kb)
		subCols := int(subRaw)%outCols + 1

		kernels := make([][]float64, lanes)
		for i := range kernels {
			kernels[i] = randSlice(rng, ka*kb)
		}
		dst := make([]float32, outRows*subCols*lanes)
		correlateLanes(t, p, kernels, ka, kb, subCols, dst, subCols*lanes, lanes)

		copied := make([]float64, rows*slab)
		for r := 0; r < rows; r++ {
			for j := 0; j < slab && c0+j < cols; j++ {
				copied[r*slab+j] = data[r*cols+c0+j]
			}
		}
		for i, kern := range kernels {
			want := CrossCorrelateValidNaive(copied, rows, slab, kern, ka, kb)
			for r := 0; r < outRows; r++ {
				for c := 0; c < subCols; c++ {
					got, w := float64(dst[(r*subCols+c)*lanes+i]), want[r*outCols+c]
					if math.Abs(got-w) > 1e-6*(1+math.Abs(w)) {
						t.Fatalf("rows=%d cols=%d c0=%d slab=%d ka=%d kb=%d lanes=%d sub=%d: lane %d at (%d,%d) = %v, naive %v",
							rows, cols, c0, slab, ka, kb, lanes, subCols, i, r, c, got, w)
					}
				}
			}
		}
	})
}
