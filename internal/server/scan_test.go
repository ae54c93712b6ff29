// White-box tests of the sketch-tier scans against the scan they replaced.
// The benchmark's oracle checks the sketch tier against direct Snapshot
// calls — the same code — so it cannot see a wrong scan; these can.
package server

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/table"
	"repro/internal/workload"
)

// fullScanNearest and fullScanAssign are the loops SketchNearestVec and
// SketchAssignVec ran before the bounded scan, kept as its oracle: every
// estimate computed by the Go bodies through the pool's distance
// function, then the lowest index of the smallest.
func fullScanNearest(sn *Snapshot, qsk []float64, exclude *table.Rect) (int, float64) {
	defer cpu.WithoutAVX2()()
	dists := make([]float64, len(sn.tiles))
	for i, tsk := range sn.sketches {
		if exclude != nil && sn.tiles[i] == *exclude {
			dists[i] = math.Inf(1)
			continue
		}
		dists[i] = sn.sdist(qsk, tsk)
	}
	best := argmin(dists)
	return best, dists[best]
}

func fullScanAssign(sn *Snapshot, qsk []float64) (int, float64) {
	defer cpu.WithoutAVX2()()
	dists := make([]float64, len(sn.medoids))
	for c, m := range sn.medoids {
		dists[c] = sn.sdist(qsk, sn.sketches[m])
	}
	best := argmin(dists)
	return best, dists[best]
}

// benchmarkFixture rebuilds the snapshot `go run ./benchmark` serves on
// serve_sketch and serve_refine (benchmark/fixture.go: 256 × 1024
// call-volume table, p = 1, k = 64, one pooled 32 × 32 dyadic size, 8
// clusters, pool and cluster seeds derived from the run seed).
func benchmarkFixture(t *testing.T, seed uint64) *Snapshot {
	t.Helper()
	const rows, cols, k, tile, logTile, clusters = 256, 1024, 64, 32, 5, 8
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: rows, Days: (cols + workload.BucketsPerDay - 1) / workload.BucketsPerDay, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb = tb.Sub(table.Rect{Rows: rows, Cols: cols})
	pool, err := core.NewPool(tb, 1, k, seed^0x706f6f6c, core.PoolOptions{
		MinLogRows: logTile, MaxLogRows: logTile, MinLogCols: logTile, MaxLogCols: logTile,
	})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := BuildSnapshot(context.Background(), tb, pool, SnapshotConfig{
		TileRows: tile, TileCols: tile, Clusters: clusters, Seed: seed ^ 0x636c7573,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// BenchmarkFixture hands the fixture to the black-box tests (package
// server_test).
var BenchmarkFixture = benchmarkFixture

// TestSketchScansMatchFullScanOnBenchmarkFixture: with every tile of the
// benchmark's table as the query, at two seeds, the sketch-tier nearest and
// assign return the Go bodies' full scan's index and distance bit for bit
// through each encoding of the kernels — and rule most candidates out by
// counting, which is the whole point.
func TestSketchScansMatchFullScanOnBenchmarkFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark fixture twice")
	}
	for _, seed := range []uint64{1, 2} {
		sn := benchmarkFixture(t, seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cpu.EachEncoding(t, func(t *testing.T) { checkSketchScans(t, sn, seed) })
		})
	}
}

func checkSketchScans(t *testing.T, sn *Snapshot, seed uint64) {
	ctx := context.Background()
	before := ReadStats()
	for i, q := range sn.tiles {
		qsk := sn.sketches[i]
		wantTile, wantD := fullScanNearest(sn, qsk, &q)
		tile, d, err := sn.SketchNearestVec(ctx, qsk, &q)
		if err != nil || tile != wantTile || math.Float64bits(d) != math.Float64bits(wantD) {
			t.Fatalf("seed %d tile %d: SketchNearestVec = (%d, %v, %v), full scan (%d, %v)",
				seed, i, tile, d, err, wantTile, wantD)
		}
	}
	after := ReadStats()
	cands := after.SketchScanCandidates - before.SketchScanCandidates
	sel := after.SketchScanSelections - before.SketchScanSelections
	n := int64(len(sn.tiles))
	if cands != n*(n-1) {
		t.Errorf("seed %d: %d candidates counted over %d scans of %d", seed, cands, n, n-1)
	}
	t.Logf("seed %d: %.1f medians selected per %d-candidate nearest scan", seed, float64(sel)/float64(n), n-1)
	if sel < n || sel*8 > cands {
		t.Errorf("seed %d: %d of %d candidates needed a selection, want at least one a scan and under 1 in 8", seed, sel, cands)
	}
	for i := range sn.tiles {
		qsk := sn.sketches[i]
		wantC, wantD := fullScanAssign(sn, qsk)
		c, m, d, err := sn.SketchAssignVec(ctx, qsk)
		if err != nil || c != wantC || m != sn.medoids[wantC] || math.Float64bits(d) != math.Float64bits(wantD) {
			t.Fatalf("seed %d tile %d: SketchAssignVec = (%d, %d, %v, %v), full scan (%d, %v)",
				seed, i, c, m, d, err, wantC, wantD)
		}
	}
}

// TestSketchScanCounterDeltas pins the two scan counters to one scan's own
// numbers: every candidate but the excluded one is counted, and at least the
// first of them has its median selected.
func TestSketchScanCounterDeltas(t *testing.T) {
	sn := tinySnap(t)
	ctx := context.Background()
	q := sn.tiles[5]
	before := ReadStats()
	if _, _, err := sn.SketchNearest(ctx, q); err != nil {
		t.Fatal(err)
	}
	mid := ReadStats()
	n := int64(len(sn.tiles))
	if d := mid.SketchScanCandidates - before.SketchScanCandidates; d != n-1 {
		t.Errorf("tabmine_sketch_scan_candidates advanced %d on a nearest over %d tiles, want %d", d, n, n-1)
	}
	if d := mid.SketchScanSelections - before.SketchScanSelections; d < 1 || d > n-1 {
		t.Errorf("tabmine_sketch_scan_selections advanced %d, want 1…%d", d, n-1)
	}
	if _, _, _, err := sn.SketchAssign(ctx, q); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if d := after.SketchScanCandidates - mid.SketchScanCandidates; d != int64(sn.clusters) {
		t.Errorf("tabmine_sketch_scan_candidates advanced %d on an assign over %d medoids", d, sn.clusters)
	}
	if d := after.SketchScanSelections - mid.SketchScanSelections; d < 1 || d > int64(sn.clusters) {
		t.Errorf("tabmine_sketch_scan_selections advanced %d, want 1…%d", d, sn.clusters)
	}
}

// argmin returns the lowest index of the smallest value, or -1 when
// every entry is +Inf (no candidates).
func argmin(xs []float64) int {
	best, bestV := -1, math.Inf(1)
	for i, v := range xs {
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}
