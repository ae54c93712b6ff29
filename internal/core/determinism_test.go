package core

// The parallel layer's design contract is strict determinism: every
// fan-out writes per-matrix / per-chunk results to disjoint pre-allocated
// slots, so the same seed must yield BYTE-identical output at any worker
// count. These tests pin that contract for each parallelized hot path;
// comparisons are on Float64bits, not within a tolerance.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/fft"
	"repro/internal/table"
	"repro/internal/workload"
)

// workerCounts is the grid the determinism suite runs: serial, the
// smallest parallel split, and everything the machine has.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// bitsEqual compares sketch vectors or stored lanes bit for bit.
func bitsEqual[T fft.Lane | float64](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

func TestSketchDeterministicAcrossWorkers(t *testing.T) {
	// 64 matrices × 32×32 tile = 65536 flops, above the parallel
	// threshold, so the fan-out really runs when workers > 1.
	const k, edge = 64, 32
	tb := workload.Random(edge, edge, 10, 3)
	vec := tb.Linearize(table.Rect{R0: 0, C0: 0, Rows: edge, Cols: edge}, nil)

	sk, err := NewSketcher(0.75, k, edge, edge, 99)
	if err != nil {
		t.Fatal(err)
	}
	ref := sk.SetWorkers(1).Sketch(vec, nil)
	for _, w := range workerCounts() {
		got := sk.SetWorkers(w).Sketch(vec, nil)
		if !bitsEqual(ref, got) {
			t.Errorf("Sketch with workers=%d differs from workers=1", w)
		}
	}
}

// k = 8 is one full lane block, k = 7 one short block, k = 65 eight full
// blocks and a trailing block of one unpaired kernel: blocks are the
// fan-out unit, so each worker count splits them differently.
func TestAllPositionsDeterministicAcrossWorkers(t *testing.T) {
	tb := workload.Random(48, 40, 5, 11)
	for _, k := range []int{7, 8, 65} {
		sk, err := NewSketcher(1.25, k, 8, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		ref := sk.SetWorkers(1).AllPositions(tb)
		for _, w := range workerCounts() {
			got := sk.SetWorkers(w).AllPositions(tb)
			if !bitsEqual(ref.bands[0].data, got.bands[0].data) {
				t.Errorf("k=%d: AllPositions with workers=%d differs from workers=1", k, w)
			}
		}
	}
}

// TestAllPositionsOnePanelDeterministic pins the contract on a
// non-square tile: AllPositions, the one table-wide panel of its
// sketcher, is the same bytes at any worker count. k is odd so the
// unpaired trailing kernel of the packed-pair scheme is exercised.
func TestAllPositionsOnePanelDeterministic(t *testing.T) {
	tb := workload.Random(40, 36, 6, 13)
	const k = 7
	sk, err := NewSketcher(0.8, k, 8, 4, 63)
	if err != nil {
		t.Fatal(err)
	}
	ref := sk.SetWorkers(1).AllPositions(tb)
	for _, w := range workerCounts() {
		got := sk.SetWorkers(w).AllPositions(tb)
		if !bitsEqual(ref.bands[0].data, got.bands[0].data) {
			t.Errorf("AllPositions with workers=%d differs from workers=1", w)
		}
	}
}

// TestOnePanelPoolIsAllPositions pins the one build: every plane set of a
// pool built without PanelCols is, bit for bit, Sketcher.AllPositions of
// its own sketcher over the table — the same table-wide slab plan through
// the same per-panel loop — at any worker count, on several sizes and an
// odd k.
func TestOnePanelPoolIsAllPositions(t *testing.T) {
	tb := workload.Random(24, 40, 4, 17)
	for _, w := range workerCounts() {
		pool, err := NewPool(tb, 1.5, 9, 31, PoolOptions{
			MinLogRows: 1, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 5, Workers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		for key, sets := range pool.entries {
			for s, ps := range sets {
				want := ps.Sketcher().AllPositions(tb)
				if !bitsEqual(want.bands[0].data, ps.bands[0].data) {
					t.Errorf("workers=%d size %v set %d: pool lanes differ from AllPositions", w, key, s)
				}
			}
		}
	}
}

// TestNewPoolPlaneDataDeterministicAcrossWorkers compares every float of
// every plane set (not just sampled sketches): the shared table spectrum
// is read-only and each packed pair writes its own lanes, so pool
// construction must be byte-identical at any worker count.
func TestNewPoolPlaneDataDeterministicAcrossWorkers(t *testing.T) {
	tb := workload.Random(32, 32, 7, 5)
	opts := PoolOptions{MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3}
	o := opts
	o.Workers = 1
	ref, err := NewPool(tb, 0.5, 9, 77, o) // odd k: unpaired trailing kernel
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		o := opts
		o.Workers = w
		pool, err := NewPool(tb, 0.5, 9, 77, o)
		if err != nil {
			t.Fatal(err)
		}
		for key, sets := range ref.entries {
			got := pool.entries[key]
			for s := range sets {
				if !bitsEqual(sets[s].bands[0].data, got[s].bands[0].data) {
					t.Errorf("size %v set %d: plane data with workers=%d differs from workers=1", key, s, w)
				}
			}
		}
	}
}

func TestPoolSketchDeterministicAcrossWorkers(t *testing.T) {
	tb := workload.Random(32, 32, 7, 5)
	opts := PoolOptions{MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3}
	rects := []table.Rect{
		{R0: 0, C0: 0, Rows: 4, Cols: 8},  // exact dyadic
		{R0: 3, C0: 5, Rows: 7, Cols: 11}, // compound
		{R0: 10, C0: 2, Rows: 13, Cols: 6},
	}

	o := opts
	o.Workers = 1
	refPool, err := NewPool(tb, 0.5, 16, 77, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		o := opts
		o.Workers = w
		pool, err := NewPool(tb, 0.5, 16, 77, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, rect := range rects {
			ref, err := refPool.Sketch(rect, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pool.Sketch(rect, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(ref, got) {
				t.Errorf("Pool.Sketch(%v) with workers=%d differs from workers=1", rect, w)
			}
		}
	}
}
