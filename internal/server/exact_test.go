// White-box tests of the exact engine against a brute-force scan. Every
// exact-tier entry point is the one engine (progressiveScan at the exact
// margin), so comparing them with each other proves nothing; the oracle
// here is the full scan the engine replaced.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/prune"
	"repro/internal/table"
	"repro/internal/workload"
)

// bruteForceScan is the exact tier's full scan: every candidate's power
// sum accumulated row by row, the lowest index of the smallest, and that
// distance; -1 when no candidate's sum is below +Inf.
func bruteForceScan(sn *Snapshot, assign bool, q table.Rect) (int, float64) {
	set, err := sn.scanSet(assign)
	if err != nil {
		panic(err)
	}
	sums := make([]float64, len(set.rects))
	for i, rect := range set.rects {
		if set.skipSelf && rect == q {
			sums[i] = math.Inf(1)
			continue
		}
		for r := 0; r < q.Rows; r++ {
			sums[i] += sn.lp.DistPowSum(sn.rectRow(rect, r), sn.rectRow(q, r))
		}
	}
	best := argmin(sums)
	if best < 0 {
		return -1, 0
	}
	return best, math.Pow(sums[best], 1/sn.lp.Value())
}

// BruteForceScan hands the oracle to the black-box tests (package
// server_test).
var BruteForceScan = bruteForceScan

// agreeSnap builds a snapshot over tb with one pooled dyadic size, the
// tile's.
func agreeSnap(t *testing.T, tb *table.Table, p float64, tile int) *Snapshot {
	t.Helper()
	lg := bits.Len(uint(tile)) - 1
	pool, err := core.NewPool(tb, p, 16, 7, core.PoolOptions{
		MinLogRows: lg, MaxLogRows: lg, MinLogCols: lg, MaxLogCols: lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := BuildSnapshot(context.Background(), tb, pool, SnapshotConfig{
		TileRows: tile, TileCols: tile, Seed: 7,
		Clusters: min(4, (tb.Rows()/tile)*(tb.Cols()/tile)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// checkExactEngines holds every exact-tier entry point to the brute-force
// scan's answer for q, bit for bit: the exported scans, and the mode=exact
// and mode=auto handlers' bodies.
func checkExactEngines(t *testing.T, sn *Snapshot, h http.Handler, q table.Rect, what string) {
	t.Helper()
	ctx := context.Background()
	same := func(idx int, d float64, wantIdx int, wantD float64) bool {
		return idx == wantIdx && math.Float64bits(d) == math.Float64bits(wantD)
	}
	body := func(path string, out any) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s q=%v: GET %s answered %d %s", what, q, path, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: GET %s: %v", what, path, err)
		}
	}

	wantTile, wantD := bruteForceScan(sn, false, q)
	if tile, d, err := sn.ExactNearest(ctx, q, 1); err != nil || !same(tile, d, wantTile, wantD) {
		t.Fatalf("%s q=%v: ExactNearest (%d, %x, %v), brute force (%d, %x)", what, q, tile, math.Float64bits(d), err, wantTile, math.Float64bits(wantD))
	}
	for _, workers := range []int{1, 3} {
		if tile, d, _, err := sn.ProgressiveNearest(ctx, q, workers, nil, 0); err != nil || !same(tile, d, wantTile, wantD) {
			t.Fatalf("%s q=%v workers=%d: ProgressiveNearest (%d, %x, %v), brute force (%d, %x)", what, q, workers, tile, math.Float64bits(d), err, wantTile, math.Float64bits(wantD))
		}
	}
	for _, mode := range []string{ModeExact, ModeAuto} {
		var nr NearestResult
		body(fmt.Sprintf("/v1/nearest?q=%s&mode=%s", FormatRect(q), mode), &nr)
		if !same(nr.Tile, nr.Distance, wantTile, wantD) || nr.Tier != TierExact || (nr.Prune != nil) != (mode == ModeAuto) {
			t.Fatalf("%s q=%v mode=%s: answered %+v, brute force (%d, %v)", what, q, mode, nr, wantTile, wantD)
		}
	}

	wantC, wantAD := bruteForceScan(sn, true, q)
	if c, m, d, err := sn.ExactAssign(ctx, q); err != nil || !same(c, d, wantC, wantAD) || m != sn.medoids[wantC] {
		t.Fatalf("%s q=%v: ExactAssign (%d, %d, %x, %v), brute force (%d, %x)", what, q, c, m, math.Float64bits(d), err, wantC, math.Float64bits(wantAD))
	}
	if c, _, d, _, err := sn.ProgressiveAssign(ctx, q, 2, nil, 0); err != nil || !same(c, d, wantC, wantAD) {
		t.Fatalf("%s q=%v: ProgressiveAssign (%d, %x, %v), brute force (%d, %x)", what, q, c, math.Float64bits(d), err, wantC, math.Float64bits(wantAD))
	}
	for _, mode := range []string{ModeExact, ModeAuto} {
		var ar AssignResult
		body(fmt.Sprintf("/v1/assign?q=%s&mode=%s", FormatRect(q), mode), &ar)
		if !same(ar.Cluster, ar.Distance, wantC, wantAD) || ar.Medoid != sn.medoids[wantC] {
			t.Fatalf("%s q=%v mode=%s: answered %+v, brute force (%d, %v)", what, q, mode, ar, wantC, wantAD)
		}
	}
}

// TestExactEnginesAgree: on every tile of the benchmark's fixture shape,
// of a traffic, a six-regions and a noise table at p ∈ {0.5, 1, 2}, on
// queries off the grid, and on an 8 × 8-tile snapshot, every exact-tier
// entry point answers what the brute-force scan answers — tile or cluster,
// distance bits, lowest index on ties — and the bounds did rule candidates
// out where the data has levels for a row sum to see.
func TestExactEnginesAgree(t *testing.T) {
	type fixture struct {
		name string
		sn   *Snapshot
	}
	var fixtures []fixture
	if !testing.Short() {
		fixtures = append(fixtures, fixture{"benchmark fixture", benchmarkFixture(t, 1)})
	}
	traffic, err := workload.Traffic(workload.TrafficConfig{Hosts: 128, Days: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	six, err := workload.NewSixRegions(workload.SixRegionsConfig{Rows: 128, Cols: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	calls, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: 64, Days: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 1, 2} {
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("traffic p=%v", p), agreeSnap(t, traffic.Sub(table.Rect{Rows: 128, Cols: 256}), p, 32)},
			fixture{fmt.Sprintf("six regions p=%v", p), agreeSnap(t, six.Table, p, 32)},
			fixture{fmt.Sprintf("noise p=%v", p), agreeSnap(t, workload.Random(128, 256, 10, 3), p, 32)},
			fixture{fmt.Sprintf("call volume 8x8 p=%v", p), agreeSnap(t, calls.Sub(table.Rect{Rows: 64, Cols: 128}), p, 8)},
		)
	}
	// Duplicate tiles: exact ties, which the lowest index must win.
	dup := workload.Random(64, 64, 10, 5)
	for r := 0; r < 16; r++ {
		copy(dup.Row(48 + r)[16:32], dup.Row(r)[32:48])
		copy(dup.Row(16 + r)[0:16], dup.Row(r)[32:48])
	}
	fixtures = append(fixtures, fixture{"duplicate tiles", agreeSnap(t, dup, 1, 16)})

	for _, fx := range fixtures {
		sn := fx.sn
		s, err := New(sn, Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, q := range sn.tiles {
			checkExactEngines(t, sn, h, q, fx.name)
		}
		tr, tc := sn.TileRows(), sn.TileCols()
		for _, q := range []table.Rect{
			{R0: 3, C0: 5, Rows: tr, Cols: tc},
			{R0: sn.tb.Rows() - tr, C0: sn.tb.Cols() - tc - 1, Rows: tr, Cols: tc},
			{R0: tr, C0: tc / 2, Rows: tr, Cols: tc},
		} {
			checkExactEngines(t, sn, h, q, fx.name+" off the grid")
		}
	}

	// What the bounds are for: on the fixture's data they leave a handful
	// of candidates to read.
	if !testing.Short() {
		sn := fixtures[0].sn
		var st prune.Stats
		for _, q := range sn.tiles {
			_, _, one, err := sn.ProgressiveNearest(context.Background(), q, 1, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.CellsEvaluated += one.CellsEvaluated
			st.CoordinatesTotal += one.CoordinatesTotal
		}
		if st.CellsEvaluated*10 > st.CoordinatesTotal {
			t.Errorf("exact margin on the benchmark fixture read %d of %d coordinates, want under a tenth", st.CellsEvaluated, st.CoordinatesTotal)
		}
	}
}

// TestExactScanNoCandidates: the degenerate sets fail as the full scan
// fails, with the text the wire carries.
func TestExactScanNoCandidates(t *testing.T) {
	// One tile: the query's own position is the only candidate.
	tb := workload.Random(8, 8, 10, 1)
	sn := agreeSnap(t, tb, 1, 8)
	q := table.Rect{Rows: 8, Cols: 8}
	if idx, _ := bruteForceScan(sn, false, q); idx != -1 {
		t.Fatalf("brute force found candidate %d on a one-tile grid", idx)
	}
	_, _, err := sn.ExactNearest(context.Background(), q, 1)
	if err == nil || err.Error() != "no candidate tile for [0:8,0:8]" {
		t.Errorf("ExactNearest on a one-tile grid: %v", err)
	}
}

// TestTileIndex: grid arithmetic answers what comparing with every tile
// answered.
func TestTileIndex(t *testing.T) {
	sn := agreeSnap(t, workload.Random(40, 72, 10, 1), 1, 8) // 5 × 9 tiles
	for i, r := range sn.tiles {
		if got := sn.tileIndex(r); got != i {
			t.Errorf("tileIndex(%v) = %d, want %d", r, got, i)
		}
	}
	for _, r := range []table.Rect{
		{R0: 1, C0: 0, Rows: 8, Cols: 8}, {R0: 0, C0: 7, Rows: 8, Cols: 8},
		{R0: 8, C0: 8, Rows: 8, Cols: 16}, {R0: 8, C0: 8, Rows: 7, Cols: 8},
		{R0: 32, C0: 64, Rows: 8, Cols: 8}, // the last tile is index 44
		{R0: 40, C0: 0, Rows: 8, Cols: 8}, {R0: 0, C0: 72, Rows: 8, Cols: 8},
		{R0: -8, C0: 0, Rows: 8, Cols: 8}, {R0: 0, C0: -8, Rows: 8, Cols: 8},
		{R0: -1, C0: -1, Rows: 8, Cols: 8}, {R0: -80, C0: -80, Rows: 8, Cols: 8},
	} {
		want := -1
		for i, tile := range sn.tiles {
			if tile == r {
				want = i
			}
		}
		if got := sn.tileIndex(r); got != want {
			t.Errorf("tileIndex(%v) = %d, want %d", r, got, want)
		}
	}
}
