package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fft"
	"repro/internal/table"
)

// prefixTable returns the left cols-wide prefix of t as its own table —
// the "before the append" view whose bytes the appended view extends.
func prefixTable(t *testing.T, tb *table.Table, cols int) *table.Table {
	t.Helper()
	data := make([]float64, tb.Rows()*cols)
	for r := 0; r < tb.Rows(); r++ {
		copy(data[r*cols:(r+1)*cols], tb.Row(r)[:cols])
	}
	out, err := table.FromData(tb.Rows(), cols, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requirePoolsBytewiseEqual(t *testing.T, want, got *Pool, label string) {
	t.Helper()
	if len(want.entries) != len(got.entries) {
		t.Fatalf("%s: entry counts %d vs %d", label, len(want.entries), len(got.entries))
	}
	for key, sets := range want.entries {
		gsets := got.entries[key]
		for s := range sets {
			w, g := sets[s], gsets[s]
			if w.rows != g.rows || w.cols != g.cols {
				t.Fatalf("%s: size %v set %d dims %dx%d vs %dx%d",
					label, key, s, w.rows, w.cols, g.rows, g.cols)
			}
			for i := range w.bands[0].data {
				if w.bands[0].data[i] != g.bands[0].data[i] {
					t.Fatalf("%s: size %v set %d lane byte mismatch at %d: %v vs %v",
						label, key, s, i, w.bands[0].data[i], g.bands[0].data[i])
				}
			}
		}
	}
}

// The tentpole determinism property: appending 1..7 random-width column
// batches produces plane-set lanes byte-identical to a from-scratch
// panel build over the final table — at every worker count.
func TestAppendByteIdenticalToFromScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 41))
	const rows, startCols, maxCols = 16, 20, 80
	full := randTable(rng, rows, maxCols)
	opts := PoolOptions{
		MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 4,
		PanelCols: 8,
	}
	for trial := 0; trial < 3; trial++ {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			o := opts
			o.Workers = workers
			cols := startCols
			pool, err := NewPool(prefixTable(t, full, cols), 1, 6, 7, o)
			if err != nil {
				t.Fatal(err)
			}
			batches := 1 + rng.IntN(7)
			for b := 0; b < batches && cols < maxCols; b++ {
				cols = min(maxCols, cols+1+rng.IntN(16))
				pool, err = pool.Append(context.Background(), prefixTable(t, full, cols))
				if err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := NewPool(prefixTable(t, full, cols), 1, 6, 7, o)
			if err != nil {
				t.Fatal(err)
			}
			requirePoolsBytewiseEqual(t, fresh, pool, "appended vs from-scratch")
			if pool.HighWaterCols() != cols {
				t.Fatalf("HighWaterCols = %d, want %d", pool.HighWaterCols(), cols)
			}
		}
	}
}

// An append pays for the panels its columns fall in and nothing else: a
// 1-column append on a ≥256-column table runs at least 5× fewer FFT
// correlations than a full NewPool; a PanelCols-aligned day costs
// exactly one panel per size — 4 sets × ⌈k/2⌉ packed round trips each,
// over one table spectrum per column size — whether or not the day
// before it is sealed; and a trim (Reband with a drop) costs none.
func TestAppendCorrelationSavings(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	const rows, cols = 8, 257
	full := randTable(rng, rows, cols)
	opts := PoolOptions{
		MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 8,
		PanelCols: 16,
	}
	pool, err := NewPool(prefixTable(t, full, cols-1), 1, 4, 5, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := fft.CorrelationCount()
	if _, err := NewPool(full, 1, 4, 5, opts); err != nil {
		t.Fatal(err)
	}
	fullCorr := fft.CorrelationCount() - before

	before = fft.CorrelationCount()
	if _, err := pool.Append(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	incrCorr := fft.CorrelationCount() - before

	if incrCorr == 0 || fullCorr == 0 {
		t.Fatalf("correlation counts not captured: full=%d incr=%d", fullCorr, incrCorr)
	}
	if fullCorr < 5*incrCorr {
		t.Fatalf("1-column append ran %d correlations vs %d for a full build (%.1f×), want ≥5×",
			incrCorr, fullCorr, float64(fullCorr)/float64(incrCorr))
	}
	t.Logf("full build: %d correlations, 1-column append: %d (%.1f× fewer)",
		fullCorr, incrCorr, float64(fullCorr)/float64(incrCorr))

	// Aligned days: tile widths below, at and above the panel width.
	const k, day = 7, 8
	dopts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 4, PanelCols: day}
	sizes, colSizes := int64(2*3), int64(3)
	wantCorr := sizes * compoundSets * ((k + 1) / 2)
	days := randTable(rng, rows, 6*day)
	window := func(base, d int) *table.Table {
		return days.Sub(table.Rect{R0: 0, C0: base, Rows: rows, Cols: d*day - base})
	}
	base := 0
	dp, err := NewPool(window(base, 2), 1, k, 5, dopts)
	if err != nil {
		t.Fatal(err)
	}
	for d := 3; d <= 6; d++ {
		if d == 5 { // seal what is sealable, then trim one alignment's worth
			c0, s0 := fft.CorrelationCount(), fft.TableSpectrumCount()
			bands := sealFromPool(t, dp, dp.SealableCols(), dp.SegAlign())
			if dp, err = dp.Reband(0, bands); err != nil {
				t.Fatal(err)
			}
			base = dp.SegAlign()
			if dp, err = dp.Reband(base, shiftBands(bands[1:], base)); err != nil {
				t.Fatal(err)
			}
			if c, s := fft.CorrelationCount()-c0, fft.TableSpectrumCount()-s0; c != 0 || s != 0 {
				t.Fatalf("seal and trim ran %d correlations over %d table spectra, want none", c, s)
			}
		}
		c0, s0 := fft.CorrelationCount(), fft.TableSpectrumCount()
		if dp, err = dp.Append(context.Background(), window(base, d)); err != nil {
			t.Fatal(err)
		}
		if c, s := fft.CorrelationCount()-c0, fft.TableSpectrumCount()-s0; c != wantCorr || s != colSizes {
			t.Fatalf("day %d: %d correlations over %d table spectra, want exactly %d over %d",
				d, c, s, wantCorr, colSizes)
		}
	}
	if dp.BaseCol() != base || dp.HighWaterCols() != 6*day {
		t.Fatalf("pool spans [%d,%d), want [%d,%d)", dp.BaseCol(), dp.HighWaterCols(), base, 6*day)
	}
}

// Panel-mode pools answer the same queries as monolithic pools up to FFT
// rounding: the decomposition changes transform sizes, never the math —
// so a lane of one is the lane of the other or the lane next to it.
func TestPanelPoolAgreesWithMonolithic(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 43))
	tb := randTable(rng, 16, 40)
	base := PoolOptions{MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 5}
	mono, err := NewPool(tb, 1, 8, 11, base)
	if err != nil {
		t.Fatal(err)
	}
	panelOpts := base
	panelOpts.PanelCols = 8
	panel, err := NewPool(tb, 1, 8, 11, panelOpts)
	if err != nil {
		t.Fatal(err)
	}
	for key, sets := range mono.entries {
		psets := panel.entries[key]
		for s := range sets {
			m, p := sets[s], psets[s]
			if m.rows != p.rows || m.cols != p.cols {
				t.Fatalf("size %v set %d dims differ", key, s)
			}
			for i := range m.bands[0].data {
				if !lanesNear(m.bands[0].data[i], p.bands[0].data[i], 1e-9*math.Max(1, math.Abs(float64(m.bands[0].data[i].Float32())))) {
					t.Fatalf("size %v set %d diverges at %d: %v vs %v", key, s, i, m.bands[0].data[i], p.bands[0].data[i])
				}
			}
		}
	}
}

// A cancelled Append publishes nothing and returns the context error;
// the receiving pool stays fully usable (it is never mutated).
func TestAppendCancellation(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 44))
	const rows, cols = 16, 64
	full := randTable(rng, rows, cols)
	opts := PoolOptions{
		MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 4,
		PanelCols: 4, Workers: 2,
	}
	pool, err := NewPool(prefixTable(t, full, 32), 1, 6, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make(map[[2]int][4][]fft.Lane)
	for key, sets := range pool.entries {
		var cp [4][]fft.Lane
		for s := range sets {
			cp[s] = append([]fft.Lane(nil), sets[s].bands[0].data...)
		}
		snapshot[key] = cp
	}
	ctx := faultinject.CancelAfterChecks(context.Background(), 3)
	if _, err := pool.Append(ctx, full); !errors.Is(err, context.Canceled) {
		t.Fatalf("Append error = %v, want context.Canceled", err)
	}
	for key, sets := range pool.entries {
		for s := range sets {
			for i, v := range sets[s].bands[0].data {
				if v != snapshot[key][s][i] {
					t.Fatalf("cancelled Append mutated the receiver at size %v set %d index %d", key, s, i)
				}
			}
		}
	}
	// The same append completes normally afterwards.
	np, err := pool.Append(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPool(full, 1, 6, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	requirePoolsBytewiseEqual(t, fresh, np, "append after cancellation")
}

func TestAppendValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 46))
	tb := randTable(rng, 8, 16)
	mono, err := NewPool(tb, 1, 4, 1, PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mono.Append(context.Background(), tb); err == nil {
		t.Fatal("Append on a monolithic pool must fail")
	}
	popts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2, PanelCols: 4}
	panel, err := NewPool(tb, 1, 4, 1, popts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := panel.Append(context.Background(), randTable(rng, 9, 20)); err == nil {
		t.Fatal("Append with a different row count must fail")
	}
	if _, err := panel.Append(context.Background(), randTable(rng, 8, 12)); err == nil {
		t.Fatal("Append with fewer columns must fail")
	}
	same, err := panel.Append(context.Background(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if same != panel {
		t.Fatal("zero-width append should return the receiver")
	}
	if _, err := NewPool(tb, 1, 4, 1, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2, PanelCols: -1,
	}); err == nil {
		t.Fatal("negative PanelCols must fail")
	}
}
