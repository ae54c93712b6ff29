package prune

import (
	"context"
	"slices"
	"testing"

	"repro/internal/table"
	"repro/internal/workload"
)

// benchRefineTables are the six tables `make bench-refine` scans
// (internal/server's refineTables), each 256 × 1024: call volumes at 32 ×
// 32, 16 × 16 and 8 × 8 tiles, traffic, six regions and noise.
func benchRefineTables(t *testing.T) []struct {
	name string
	tile int
	tb   *table.Table
} {
	t.Helper()
	calls, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: 256, Days: (1024 + workload.BucketsPerDay - 1) / workload.BucketsPerDay, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := workload.Traffic(workload.TrafficConfig{Hosts: 256, Days: 11, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	six, err := workload.NewSixRegions(workload.SixRegionsConfig{Rows: 256, Cols: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	window := table.Rect{Rows: 256, Cols: 1024}
	return []struct {
		name string
		tile int
		tb   *table.Table
	}{
		{"fixture", 32, calls.Sub(window)},
		{"callvolume16", 16, calls.Sub(window)},
		{"callvolume8", 8, calls.Sub(window)},
		{"traffic", 32, traffic.Sub(window)},
		{"sixregions", 32, six.Table},
		{"random", 32, workload.Random(256, 1024, 10, 1)},
	}
}

// gridTiles returns the cells of every tile × tile grid tile of tb, row
// major, in grid order.
func gridTiles(t *testing.T, tb *table.Table, tile int) [][]float64 {
	t.Helper()
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), tile, tile)
	if err != nil {
		t.Fatal(err)
	}
	tiles := make([][]float64, grid.NumTiles())
	for i := range tiles {
		rect := grid.Rect(i)
		for r := 0; r < tile; r++ {
			tiles[i] = append(tiles[i], tb.Row(rect.R0 + r)[rect.C0:rect.C0+tile]...)
		}
	}
	return tiles
}

// traceNearest runs src on one worker and returns the rows it read, as
// candidate·Rows + row in the order it read them, with the statistics,
// which it checks against the bounds the engine took.
func traceNearest(t *testing.T, src Source, reads []int) ([]int, Stats) {
	t.Helper()
	traced, calls := countBounds(src)
	traced.RowPowSum = func(i, r int) float64 {
		reads = append(reads, i*src.Rows+r)
		return src.RowPowSum(i, r)
	}
	_, _, st, err := Nearest(context.Background(), traced, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkBoundCalls(t, st, src, calls)
	return reads, st
}

// TestTotalBoundChangesOnlyBoundCoordinates runs grid tiles of the six
// bench-refine tables (every tile of the 32 × 32 ones, 256 spread over the
// rest) as nearest queries at p = 1, with and without the total bound in
// front of the row bound. Over the reals the total is never above the row
// bound, so every decision is the same: the same rows read in the same
// order — hence the same first candidate, cutoffs and cells — and the same
// abandonments. Only the bound coordinates move, and never up, except on
// noise, where no total decides anything and the totals are paid on top of
// every row bound.
func TestTotalBoundChangesOnlyBoundCoordinates(t *testing.T) {
	for _, tc := range benchRefineTables(t) {
		vs := newVecSet(1, tc.tile, tc.tile, gridTiles(t, tc.tb, tc.tile))
		stride := max(1, len(vs.cands)/256)
		var tieredReads, rowReads []int
		var tiered, rowsOnly int64
		queries := 0
		for qi := 0; qi < len(vs.cands); qi += stride {
			src := vs.source(vs.cands[qi], qi)
			var stT, stR Stats
			tieredReads, stT = traceNearest(t, src, tieredReads[:0])
			src.TotalBound = nil
			rowReads, stR = traceNearest(t, src, rowReads[:0])
			if !slices.Equal(tieredReads, rowReads) {
				t.Fatalf("%s query %d: the total bound changed the rows read (%d rows against %d)",
					tc.name, qi, len(tieredReads), len(rowReads))
			}
			if stT.RefineAbandoned != stR.RefineAbandoned ||
				stT.CellsEvaluated-stT.BoundCoordinates != stR.CellsEvaluated-stR.BoundCoordinates {
				t.Fatalf("%s query %d: statistics %+v with the total bound, %+v without", tc.name, qi, stT, stR)
			}
			if tc.name != "random" && stT.BoundCoordinates > stR.BoundCoordinates {
				t.Fatalf("%s query %d: %d bound coordinates with the total bound, %d without",
					tc.name, qi, stT.BoundCoordinates, stR.BoundCoordinates)
			}
			tiered += stT.BoundCoordinates
			rowsOnly += stR.BoundCoordinates
			queries++
		}
		t.Logf("%s: %d queries, bound coordinates a query %.1f → %.1f",
			tc.name, queries, float64(rowsOnly)/float64(queries), float64(tiered)/float64(queries))
	}
}
