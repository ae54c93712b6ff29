// Allocation regression tests for the single-query serving paths.
// Before the sync.Pool scratch landed (prune search scratch, snapshot
// query-sketch buffers), a workers=1 ProgressiveNearest ran 88–93
// allocs/op; pooling cut that to ~22. The sketch-tier
// scans measure 0: one pooled scratch per scan and no per-candidate
// slice. The bounds here leave modest headroom so unrelated runtime
// changes don't flake, while still failing loudly if per-query scratch
// regresses to per-item allocation.
package server_test

import (
	"context"
	"testing"

	"repro/internal/table"
)

func assertAllocs(t *testing.T, name string, bound float64, fn func()) {
	t.Helper()
	fn() // warm the pools outside the measured runs
	if a := testing.AllocsPerRun(50, fn); a > bound {
		t.Errorf("%s: %.1f allocs/op, want <= %v", name, a, bound)
	}
}

func TestSingleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are process-global and distorted under the race detector")
	}
	sn := snap(t)
	ctx := context.Background()
	// A compound (grid-offset) query: the worst case, since sketching it
	// assembles four dyadic corners instead of one lookup.
	q := table.Rect{R0: 3, C0: 5, Rows: 8, Cols: 8}
	b := table.Rect{R0: 16, C0: 16, Rows: 8, Cols: 8}
	plan, err := sn.Plan(0.05)
	if err != nil {
		t.Fatal(err)
	}

	assertAllocs(t, "ProgressiveNearest(exact margin)", 30, func() {
		if _, _, _, err := sn.ProgressiveNearest(ctx, q, 1, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	// mode=prune's knobs are validated and change nothing: the same bound.
	assertAllocs(t, "ProgressiveNearest(mode=prune knobs)", 30, func() {
		if _, _, _, err := sn.ProgressiveNearest(ctx, q, 1, plan, 0.1); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "ProgressiveAssign", 25, func() {
		if _, _, _, _, err := sn.ProgressiveAssign(ctx, q, 1, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "SketchNearest", 1, func() {
		if _, _, err := sn.SketchNearest(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "SketchAssign", 1, func() {
		if _, _, _, err := sn.SketchAssign(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "SketchDistance", 2, func() {
		if _, err := sn.SketchDistance(q, b); err != nil {
			t.Fatal(err)
		}
	})
}
