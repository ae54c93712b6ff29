package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/fft"
	"repro/internal/lpnorm"
	"repro/internal/table"
)

func smallPool(t *testing.T, tb *table.Table, p float64, k int) *Pool {
	t.Helper()
	pool, err := NewPool(tb, p, k, 777, PoolOptions{
		MinLogRows: 1, MaxLogRows: 3,
		MinLogCols: 1, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestNewPoolValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tb := randTable(rng, 16, 16)
	if _, err := NewPool(tb, 1, 4, 1, PoolOptions{MinLogRows: -1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2}); err == nil {
		t.Error("negative min log: expected error")
	}
	if _, err := NewPool(tb, 1, 4, 1, PoolOptions{MinLogRows: 3, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2}); err == nil {
		t.Error("min > max: expected error")
	}
	if _, err := NewPool(tb, 1, 4, 1, PoolOptions{MinLogRows: 1, MaxLogRows: 5, MinLogCols: 1, MaxLogCols: 2}); err == nil {
		t.Error("dyadic size exceeding table: expected error")
	}
	if _, err := NewPool(tb, 7, 4, 1, PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2}); err == nil {
		t.Error("bad p: expected error")
	}
}

// TestNewPoolComputesOneTableSpectrum is the shared-spectrum engine's
// headline invariant: the padded transform size depends only on the
// table, so pool construction performs exactly ONE forward table FFT no
// matter how many (dyadic size × subpool × matrix) correlation jobs run.
// The seed path paid this transform numSizes × compoundSets × k times.
func TestNewPoolComputesOneTableSpectrum(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	tb := randTable(rng, 32, 32)
	for _, workers := range []int{1, 0} {
		before := fft.TableSpectrumCount()
		if _, err := NewPool(tb, 1, 8, 5, PoolOptions{
			MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4,
			Workers: workers,
		}); err != nil {
			t.Fatal(err)
		}
		if d := fft.TableSpectrumCount() - before; d != 1 {
			t.Errorf("workers=%d: NewPool computed %d forward table spectra, want exactly 1", workers, d)
		}
	}
}

// TestPoolComputesOneSpectrumPerDistinctSlab extends the invariant to
// panels: a build computes one forward spectrum per distinct slab, not
// per (size, panel). The slabs are counted here from the panel rule
// itself — size b correlates panels of width w = max(PanelCols, b), or
// one of width cols without PanelCols, panel q over the table columns
// [max(q·w − b + 1, 0), (q+1)·w) — so panel 0 of every size sharing a
// width is one slab [0, w). At 16 × 96 with PanelCols 8 and sizes 2..32
// that is 45 panels over 43 slabs.
func TestPoolComputesOneSpectrumPerDistinctSlab(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	tb := randTable(rng, 16, 96)
	for _, panel := range []int{0, 2, 8, 16, 32, 64} {
		opts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 5, PanelCols: panel}
		slabs := map[[2]int]bool{}
		for j := opts.MinLogCols; j <= opts.MaxLogCols; j++ {
			b, w := 1<<j, max(panel, 1<<j)
			if panel == 0 {
				w = tb.Cols()
			}
			for q := 0; q*w < tb.Cols(); q++ {
				slabs[[2]int{max(q*w-b+1, 0), (q + 1) * w}] = true
			}
		}
		if panel == 8 && len(slabs) != 43 {
			t.Fatalf("PanelCols 8: the panel rule gives %d slabs, want 43", len(slabs))
		}
		for _, workers := range []int{1, 0} {
			opts.Workers = workers
			before := fft.TableSpectrumCount()
			if _, err := NewPool(tb, 1, 4, 5, opts); err != nil {
				t.Fatal(err)
			}
			if d := fft.TableSpectrumCount() - before; d != int64(len(slabs)) {
				t.Errorf("PanelCols %d workers=%d: %d forward table spectra, want one per distinct slab, %d",
					panel, workers, d, len(slabs))
			}
		}
	}
}

// A build runs block-major: each lane block transforms its kernel pairs
// once per padded size of its job's panels (panel 0 of a panel build is
// narrower than the rest) and writes, byte for byte, the lanes of the
// per-panel loop, in which every panel's round trips transform their own
// kernels — at several panel widths, with a short last block (k = 21)
// and at one and two workers.
func TestBlockMajorBuildMatchesPerPanel(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	tb := randTable(rng, 24, 80)
	const k = 21
	ctx := context.Background()
	for _, panel := range []int{0, 4, 8, 32} {
		opts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 4, PanelCols: panel}
		// panelsOf lists the panels of size 2^j, each with its own plan.
		panelsOf := func(j int) []panelPlan {
			g := &colPanels{j: j, b: 1 << j, w: max(panel, 1<<j), anchors: tb.Cols() - 1<<j + 1}
			if panel == 0 {
				g.w = tb.Cols()
			}
			var panels []panelPlan
			for q := 0; q*g.w < tb.Cols(); q++ {
				a0, a1, slabCols := g.span(q)
				panels = append(panels, panelPlan{fft.NewPlan2DSlab(tb.Data(), tb.Rows(), tb.Cols(), a0, slabCols), a0, a1})
			}
			return panels
		}
		var want int64
		for j := opts.MinLogCols; j <= opts.MaxLogCols; j++ {
			padded := map[[2]int]bool{}
			for _, pn := range panelsOf(j) {
				pr, pc := pn.plan.PaddedDims()
				padded[[2]int{pr, pc}] = true
			}
			want += int64((opts.MaxLogRows - opts.MinLogRows + 1) * compoundSets * (k + 1) / 2 * len(padded))
		}
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			before := fft.KernelSpectrumCount()
			pool, err := NewPool(tb, 1, k, 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := fft.KernelSpectrumCount() - before; d != want {
				t.Errorf("PanelCols %d workers=%d: %d kernel spectra, want one per pair and padded size, %d",
					panel, workers, d, want)
			}
			ref, err := NewPool(tb, 1, k, 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			for key, sets := range ref.entries {
				panels := panelsOf(key[1])
				for _, ps := range sets {
					clear(ps.bands[len(ps.bands)-1].data)
					for _, pn := range panels {
						if err := ps.correlatePanels(ctx, []panelPlan{pn}, workers); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for _, id := range pool.Lanes() {
				got, _ := pool.CopyLaneBand(id, 0, tb.Cols(), nil)
				wantLanes, _ := ref.CopyLaneBand(id, 0, tb.Cols(), nil)
				if len(got) == 0 || len(got) != len(wantLanes) {
					t.Fatalf("lane %+v: %d lanes, per-panel %d", id, len(got), len(wantLanes))
				}
				for i := range got {
					if got[i] != wantLanes[i] {
						t.Fatalf("PanelCols %d workers=%d lane %+v: element %d = %#04x, per-panel %#04x",
							panel, workers, id, i, got[i], wantLanes[i])
					}
				}
			}
		}
	}
}

func TestDefaultPoolOptions(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	tb := randTable(rng, 20, 33)
	opts := DefaultPoolOptions(tb)
	if opts.MaxLogRows != 4 { // 2^4=16 <= 20 < 32
		t.Errorf("MaxLogRows = %d, want 4", opts.MaxLogRows)
	}
	if opts.MaxLogCols != 5 { // 2^5=32 <= 33
		t.Errorf("MaxLogCols = %d, want 5", opts.MaxLogCols)
	}
}

func TestPoolNumSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 4)
	if pool.NumSizes() != 9 { // logs {1,2,3} x {1,2,3}
		t.Errorf("NumSizes = %d, want 9", pool.NumSizes())
	}
	if pool.P() != 1 || pool.K() != 4 {
		t.Error("accessor mismatch")
	}
}

func TestPoolCanSketch(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 4)
	ok := []table.Rect{
		{R0: 0, C0: 0, Rows: 2, Cols: 2},   // smallest dyadic
		{R0: 0, C0: 0, Rows: 8, Cols: 8},   // largest dyadic
		{R0: 2, C0: 3, Rows: 5, Cols: 7},   // odd sizes
		{R0: 0, C0: 0, Rows: 16, Cols: 16}, // 2x largest dyadic
		{R0: 5, C0: 5, Rows: 11, Cols: 3},
	}
	for _, r := range ok {
		if err := pool.CanSketch(r); err != nil {
			t.Errorf("CanSketch(%v): unexpected error %v", r, err)
		}
	}
	bad := []table.Rect{
		{R0: 0, C0: 0, Rows: 1, Cols: 4},   // below min dyadic
		{R0: 0, C0: 0, Rows: 17, Cols: 4},  // outside table
		{R0: 15, C0: 15, Rows: 4, Cols: 4}, // escapes table
	}
	for _, r := range bad {
		if err := pool.CanSketch(r); err == nil {
			t.Errorf("CanSketch(%v): expected error", r)
		}
	}
}

func TestPoolExactDyadicMatchesSketcher(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 8)
	rect := table.Rect{R0: 3, C0: 2, Rows: 4, Cols: 8}
	if !pool.IsExact(rect) {
		t.Fatal("4x8 should be exact in pool")
	}
	s, err := pool.Sketch(rect, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 8 {
		t.Fatalf("sketch len %d, want 8", len(s))
	}
	// The exact sketch must equal sketching the linearized tile with the
	// same seed-derived sketcher (set 0 of size (2,3)).
	sk, _ := NewSketcher(1, 8, 4, 8, poolSketcherSeed(777, 2, 3, 0))
	direct := sk.Sketch(tb.Linearize(rect, nil), nil)
	for i := range s {
		if !laneNear(s[i], direct[i], 1e-9*(1+math.Abs(direct[i]))) {
			t.Fatalf("entry %d: pool %v vs direct %v", i, s[i], direct[i])
		}
	}
}

func TestPoolIsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 4)
	if !pool.IsExact(table.Rect{Rows: 4, Cols: 4}) {
		t.Error("4x4 should be exact")
	}
	if pool.IsExact(table.Rect{Rows: 5, Cols: 4}) {
		t.Error("5x4 should be compound")
	}
	if pool.IsExact(table.Rect{Rows: 16, Cols: 16}) {
		t.Error("16x16 exceeds pooled sizes; compound")
	}
	if pool.IsExact(table.Rect{Rows: 99, Cols: 4}) {
		t.Error("unsketchable rect cannot be exact")
	}
}

func TestCompoundSketchIsSumOfFour(t *testing.T) {
	// White-box check of Definition 4: the compound sketch equals the sum
	// of the four corner-anchored dyadic sketches from the four sets.
	rng := rand.New(rand.NewPCG(7, 7))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 6)
	rect := table.Rect{R0: 1, C0: 2, Rows: 6, Cols: 5} // dyadic 4x4 tiling
	s, err := pool.Sketch(rect, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := pool.entries[[2]int{2, 2}]
	want, mag := make([]float64, 6), make([]float64, 6)
	for _, at := range [][3]int{{0, 1, 2}, {1, 3, 2}, {2, 1, 3}, {3, 3, 3}} { // 3 = 1 + 6 - 4 = 2 + 5 - 4
		for i, v := range sets[at[0]].SketchAt(at[1], at[2], nil) {
			want[i] += v
			mag[i] += math.Abs(v)
		}
	}
	for i := range s {
		// The pool adds the four lanes in float32: three roundings.
		if math.Abs(s[i]-want[i]) > 0x1p-22*mag[i] {
			t.Fatalf("entry %d: %v vs %v", i, s[i], want[i])
		}
	}
}

// TestCompoundDistanceSandwich verifies Theorem 5's guarantee shape: the
// compound estimate lies between (1-ε)·d and ~4^(1/p)·(1+ε)·d of the true
// distance d (each cell of the difference is covered 1–4 times by the
// overlapping tiling, and m copies of a cell scale its contribution by
// m^p inside the p-norm, so the total inflation is at most 4^(1/p)... for
// p ≤ 1 — for p ≥ 1 at most 4). We use generous slack for the statistical
// estimator on top of the deterministic tiling bias.
func TestCompoundDistanceSandwich(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	tb := randTable(rng, 32, 32)
	for _, p := range []float64{1, 2} {
		pool, err := NewPool(tb, p, 201, 901, PoolOptions{
			MinLogRows: 1, MaxLogRows: 3,
			MinLogCols: 1, MaxLogCols: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		lp := lpnorm.MustP(p)
		rects := [][2]table.Rect{
			{{R0: 0, C0: 0, Rows: 6, Cols: 6}, {R0: 20, C0: 20, Rows: 6, Cols: 6}},
			{{R0: 1, C0: 3, Rows: 11, Cols: 7}, {R0: 17, C0: 9, Rows: 11, Cols: 7}},
			{{R0: 2, C0: 2, Rows: 15, Cols: 13}, {R0: 16, C0: 18, Rows: 15, Cols: 13}},
		}
		for _, pair := range rects {
			a, b := pair[0], pair[1]
			exact := lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
			est, err := pool.Distance(a, b)
			if err != nil {
				t.Fatal(err)
			}
			lo := 0.6 * exact
			hi := 4.0 / math.Pow(4, 1/p-1) * 1.5 * exact // 4^(1/p) slackened
			if p >= 1 {
				hi = 4 * 1.5 * exact
			}
			if est < lo || est > hi {
				t.Errorf("p=%v rects %v/%v: compound estimate %v outside [%v, %v] (exact %v)",
					p, a, b, est, lo, hi, exact)
			}
		}
	}
}

func TestPoolDistanceExactRects(t *testing.T) {
	// For exactly dyadic rects the pool distance carries the full sketch
	// guarantee; check tight accuracy.
	rng := rand.New(rand.NewPCG(9, 9))
	tb := randTable(rng, 32, 32)
	pool, err := NewPool(tb, 1, 301, 903, PoolOptions{
		MinLogRows: 2, MaxLogRows: 3,
		MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	lp := lpnorm.MustP(1)
	a := table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8}
	b := table.Rect{R0: 13, C0: 17, Rows: 8, Cols: 8}
	exact := lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
	est, err := pool.Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est-exact) / exact; rel > 0.25 {
		t.Errorf("exact-dyadic pool distance rel err %v (exact %v est %v)", rel, exact, est)
	}
}

func TestPoolDistanceDifferentSizesErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 4)
	_, err := pool.Distance(
		table.Rect{Rows: 4, Cols: 4},
		table.Rect{Rows: 5, Cols: 4})
	if err == nil {
		t.Error("expected error for different-size rects")
	}
}

func TestPoolSketchUnsketchable(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1, 4)
	if _, err := pool.Sketch(table.Rect{Rows: 1, Cols: 1}, nil); err == nil {
		t.Error("expected error for too-small rect")
	}
}

func TestPoolSameRectZeroDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	tb := randTable(rng, 16, 16)
	pool := smallPool(t, tb, 1.5, 9)
	r := table.Rect{R0: 2, C0: 2, Rows: 5, Cols: 6}
	d, err := pool.Distance(r, r)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("Distance(r, r) = %v, want 0", d)
	}
}

func TestDyadicFor(t *testing.T) {
	cases := []struct {
		n, minLog, maxLog int
		want              int
		wantErr           bool
	}{
		{4, 1, 3, 2, false},
		{5, 1, 3, 2, false},
		{8, 1, 3, 3, false},
		{16, 1, 3, 3, false}, // 2*8
		{17, 1, 3, 0, true},  // > 2*8
		{1, 1, 3, 0, true},   // below 2^1
		{2, 1, 3, 1, false},
		{3, 1, 3, 1, false},
	}
	for _, c := range cases {
		got, err := dyadicFor(c.n, c.minLog, c.maxLog)
		if c.wantErr {
			if err == nil {
				t.Errorf("dyadicFor(%d,%d,%d): expected error", c.n, c.minLog, c.maxLog)
			}
			continue
		}
		if err != nil {
			t.Errorf("dyadicFor(%d,%d,%d): %v", c.n, c.minLog, c.maxLog, err)
			continue
		}
		if got != c.want {
			t.Errorf("dyadicFor(%d,%d,%d) = %d, want %d", c.n, c.minLog, c.maxLog, got, c.want)
		}
	}
}

func TestNewPoolParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 20))
	tb := randTable(rng, 32, 32)
	opts := PoolOptions{MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3}
	serialOpts := opts
	serialOpts.Workers = 1
	parallelOpts := opts
	parallelOpts.Workers = 8
	serial, err := NewPool(tb, 1, 8, 555, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewPool(tb, 1, 8, 555, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	rects := []table.Rect{
		{R0: 0, C0: 0, Rows: 4, Cols: 4},
		{R0: 3, C0: 7, Rows: 6, Cols: 11},
		{R0: 10, C0: 2, Rows: 15, Cols: 9},
	}
	for _, r := range rects {
		a, err := serial.Sketch(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Sketch(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rect %v entry %d: serial %v vs parallel %v", r, i, a[i], b[i])
			}
		}
	}
}

func TestNewPoolRaceFree(t *testing.T) {
	// Exercised under -race in CI; just a concurrent build and query.
	rng := rand.New(rand.NewPCG(21, 21))
	tb := randTable(rng, 16, 16)
	pool, err := NewPool(tb, 2, 4, 1, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumSizes() != 4 {
		t.Errorf("NumSizes = %d, want 4", pool.NumSizes())
	}
}

func TestPoolMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30))
	tb := randTable(rng, 16, 16)
	pool, err := NewPool(tb, 1, 4, 1, PoolOptions{
		MinLogRows: 2, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One 4x4 size, 4 sets: data = 4 * 13*13*4 lanes; matrices = 4 * 4*16
	// float64s.
	want := int64(4*13*13*4)*LaneBytes + int64(4*4*16)*8
	if got := pool.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}
