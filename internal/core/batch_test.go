package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/workload"
)

// batchPools builds one pool per estimator flavor (p=1 median, p=2 L2)
// over the same 64x64 table, plus a mixed set of rectangle pairs:
// exact-dyadic, compound, and varying sizes across the batch.
func batchPools(t *testing.T) (*table.Table, []*core.Pool, []table.Rect, []table.Rect) {
	t.Helper()
	tb := workload.Random(64, 64, 10, 99)
	var pools []*core.Pool
	for _, p := range []float64{1, 2} {
		pool, err := core.NewPool(tb, p, 32, 7, core.PoolOptions{
			MinLogRows: 2, MaxLogRows: 4, MinLogCols: 2, MaxLogCols: 4,
		})
		if err != nil {
			t.Fatalf("NewPool(p=%v): %v", p, err)
		}
		pools = append(pools, pool)
	}
	var as, bs []table.Rect
	add := func(a, b table.Rect) { as = append(as, a); bs = append(bs, b) }
	add(table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8}, table.Rect{R0: 16, C0: 16, Rows: 8, Cols: 8}) // exact dyadic
	add(table.Rect{R0: 1, C0: 2, Rows: 6, Cols: 7}, table.Rect{R0: 30, C0: 9, Rows: 6, Cols: 7})  // compound
	add(table.Rect{R0: 0, C0: 0, Rows: 16, Cols: 16}, table.Rect{R0: 40, C0: 40, Rows: 16, Cols: 16})
	add(table.Rect{R0: 5, C0: 5, Rows: 5, Cols: 12}, table.Rect{R0: 5, C0: 40, Rows: 5, Cols: 12}) // compound, non-square
	add(table.Rect{R0: 3, C0: 3, Rows: 8, Cols: 8}, table.Rect{R0: 3, C0: 3, Rows: 8, Cols: 8})    // identical rects
	for len(as) < 67 {                                                                             // not a multiple of any internal block size
		i := len(as) % 5
		add(as[i], bs[i])
	}
	return tb, pools, as, bs
}

// TestDistanceBatchBitIdentical pins the batch kernel's contract: every
// batched estimate equals the one-at-a-time Pool.Distance bits exactly,
// for both the L2 and the median estimator, at batch sizes around the
// serving layer's (empty, one, 64 and its neighbours, the 256-item
// bound), and a batch with one rectangle the pool cannot sketch fails
// as a whole with that item's index and nothing written.
func TestDistanceBatchBitIdentical(t *testing.T) {
	_, pools, as, bs := batchPools(t)
	for _, pool := range pools {
		for _, n := range []int{0, 1, 63, 64, 65, len(as), 256} {
			ba, bb := make([]table.Rect, n), make([]table.Rect, n)
			for i := range ba {
				ba[i], bb[i] = as[i%len(as)], bs[i%len(bs)]
			}
			got, err := pool.DistanceBatch(ba, bb, nil)
			if err != nil {
				t.Fatalf("DistanceBatch(p=%v, n=%d): %v", pool.P(), n, err)
			}
			if len(got) != n {
				t.Fatalf("batch returned %d results for %d pairs", len(got), n)
			}
			for i := range ba {
				want, err := pool.Distance(ba[i], bb[i])
				if err != nil {
					t.Fatalf("Distance(%v, %v): %v", ba[i], bb[i], err)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("p=%v n=%d item %d: batch %v != sequential %v", pool.P(), n, i, got[i], want)
				}
			}
		}

		ba, bb := append([]table.Rect(nil), as...), append([]table.Rect(nil), bs...)
		ba[17] = table.Rect{R0: 0, C0: 0, Rows: 2, Cols: 2} // below MinLog size 4
		bb[17] = table.Rect{R0: 9, C0: 9, Rows: 2, Cols: 2}
		dst := make([]float64, len(ba))
		for i := range dst {
			dst[i] = -1
		}
		_, err := pool.DistanceBatch(ba, bb, dst)
		_, single := pool.Sketch(ba[17], nil)
		if err == nil || single == nil || err.Error() != "core: batch sketch 17: "+single.Error() {
			t.Errorf("p=%v unsketchable item 17: error %v, want the single sketch's %v behind its index", pool.P(), err, single)
		}
		for i, v := range dst {
			if v != -1 {
				t.Fatalf("p=%v: a failed batch wrote dst[%d] = %v", pool.P(), i, v)
			}
		}
	}
}

// TestDistanceBatchErrors covers the rejection paths: mismatched batch
// lengths, mismatched pair sizes, and an unsketchable rect.
func TestDistanceBatchErrors(t *testing.T) {
	_, pools, as, bs := batchPools(t)
	pool := pools[0]
	if _, err := pool.DistanceBatch(as[:2], bs[:1], nil); err == nil {
		t.Error("mismatched batch lengths: want error")
	}
	if _, err := pool.DistanceBatch(
		[]table.Rect{{R0: 0, C0: 0, Rows: 8, Cols: 8}},
		[]table.Rect{{R0: 0, C0: 0, Rows: 8, Cols: 16}}, nil); err == nil {
		t.Error("different-size pair: want error")
	}
	if _, err := pool.DistanceBatch(
		[]table.Rect{{R0: 0, C0: 0, Rows: 2, Cols: 2}}, // below MinLog size 4
		[]table.Rect{{R0: 0, C0: 0, Rows: 2, Cols: 2}}, nil); err == nil {
		t.Error("unsketchable rect: want error")
	}
	if got, err := pool.DistanceBatch(nil, nil, nil); err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %v, %v; want empty, nil", got, err)
	}
}

// TestDistanceBatchSteadyStateAllocs asserts the pooled-scratch
// contract: once warm, a whole batched evaluation allocates O(1) —
// nowhere near one allocation per item.
func TestDistanceBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are process-global and distorted under the race detector")
	}
	_, pools, as, bs := batchPools(t)
	for _, pool := range pools {
		dst := make([]float64, len(as))
		// Warm the buffer pool.
		if _, err := pool.DistanceBatch(as, bs, dst); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pool.DistanceBatch(as, bs, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("p=%v: %.1f allocs per %d-item batch, want O(1)", pool.P(), allocs, len(as))
		}
	}
}

// TestDistanceAllocatesNothing: a single Pool.Distance — exactly dyadic
// or compound — and a PlaneSet.Distance draw their sketch vectors and
// selection scratch from the pool the batch kernel uses, and every
// distance over sketch vectors (Sketcher's promoted Distance,
// NewSketchDist's function, Pool.SketchDist's) its selection
// scratch, so a warm call allocates nothing.
func TestDistanceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are process-global and distorted under the race detector")
	}
	tb, pools, as, bs := batchPools(t)
	for _, pool := range pools {
		for i := range as[:5] {
			a, b := as[i], bs[i]
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := pool.Distance(a, b); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("p=%v: %.1f allocs per Pool.Distance(%v, %v), want 0", pool.P(), allocs, a, b)
			}
		}
	}
	sk, err := core.NewSketcher(1, 32, 8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := sk.AllPositions(tb)
	if allocs := testing.AllocsPerRun(20, func() { ps.Distance(0, 0, 16, 16) }); allocs != 0 {
		t.Errorf("%.1f allocs per PlaneSet.Distance, want 0", allocs)
	}

	sd, err := core.NewSketchDist(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	type namedDist struct {
		name string
		dist func(a, b []float64) float64
	}
	dists := []namedDist{
		{"Sketcher.Distance", sk.Distance},
		{"NewSketchDist", sd},
	}
	for _, pool := range pools {
		dists = append(dists, namedDist{fmt.Sprintf("p=%v Pool.SketchDist()", pool.P()), pool.SketchDist()})
	}
	sa, err := pools[0].Sketch(as[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := pools[0].Sketch(bs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dists {
		if allocs := testing.AllocsPerRun(20, func() { d.dist(sa, sb) }); allocs != 0 {
			t.Errorf("%.1f allocs per %s, want 0", allocs, d.name)
		}
	}
}
