// Tests of the progressive-pruning serving path: the exact-margin
// property (byte-identical answers to the full scan at any worker
// count), mode=prune answering what mode=exact answers, exact counter
// deltas, and snapshot swaps racing mode=prune queries.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
	"repro/internal/workload"
)

// buildSnap assembles a snapshot over tb with the given sketch and grid
// shape (helper for the many-table property trials).
func buildSnap(t testing.TB, tb *table.Table, p float64, k int, tile, clusters int, seed uint64) *server.Snapshot {
	t.Helper()
	// One pooled dyadic size — the tile size itself — keeps the 200
	// per-trial pool builds cheap; offset queries still sketch fine as
	// compound rectangles of that size.
	lg := bits.Len(uint(tile)) - 1
	pool, err := core.NewPool(tb, p, k, seed, core.PoolOptions{
		MinLogRows: lg, MaxLogRows: lg, MinLogCols: lg, MaxLogCols: lg,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	sn, err := server.BuildSnapshot(context.Background(), tb, pool, server.SnapshotConfig{
		TileRows: tile, TileCols: tile, Clusters: clusters, Seed: seed,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	return sn
}

// TestPruneExactMarginProperty is the losslessness acceptance: across
// 200 random tables and grid shapes, the exact-margin progressive scan
// and ExactNearest return the brute-force scan's (tile, distance) bit for
// bit — and ProgressiveAssign and ExactAssign its (cluster, distance) — at
// workers 1, 2, and GOMAXPROCS, with worker-count-invariant statistics.
// (ExactNearest and ExactAssign are the same engine as the progressive
// scan, so they are subjects here, not the reference.)
func TestPruneExactMarginProperty(t *testing.T) {
	workersList := []int{1, 2, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(0x9EA2, uint64(trial)))
		p := []float64{0.5, 1, 2}[trial%3]
		dim := []int{16, 24, 32}[rng.IntN(3)]
		tile := []int{4, 8}[rng.IntN(2)]
		k := 5 + rng.IntN(20)
		tb := workload.Random(dim, dim, 10, 0xAB+uint64(trial))
		sn := buildSnap(t, tb, p, k, tile, 3, uint64(trial)+1)

		// One aligned tile query and one arbitrary-offset query.
		queries := []table.Rect{
			{R0: tile * rng.IntN(dim/tile), C0: tile * rng.IntN(dim/tile), Rows: tile, Cols: tile},
			{R0: rng.IntN(dim - tile + 1), C0: rng.IntN(dim - tile + 1), Rows: tile, Cols: tile},
		}
		ctx := context.Background()
		for _, q := range queries {
			wantIdx, wantD := server.BruteForceScan(sn, false, q)
			if idx, d, err := sn.ExactNearest(ctx, q, 1); err != nil || idx != wantIdx || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("trial %d q=%v: ExactNearest (%d, %x, %v) != brute force (%d, %x)",
					trial, q, idx, math.Float64bits(d), err, wantIdx, math.Float64bits(wantD))
			}
			wantC, wantAD := server.BruteForceScan(sn, true, q)
			c, wantM, ad, err := sn.ExactAssign(ctx, q)
			if err != nil || c != wantC || math.Float64bits(ad) != math.Float64bits(wantAD) {
				t.Fatalf("trial %d q=%v: ExactAssign (%d, %x, %v) != brute force (%d, %x)",
					trial, q, c, math.Float64bits(ad), err, wantC, math.Float64bits(wantAD))
			}
			var refStats *server.PruneStats
			for _, workers := range workersList {
				idx, d, st, err := sn.ProgressiveNearest(ctx, q, workers, nil, 0)
				if err != nil {
					t.Fatalf("trial %d workers=%d: ProgressiveNearest(%v): %v", trial, workers, q, err)
				}
				if idx != wantIdx || math.Float64bits(d) != math.Float64bits(wantD) {
					t.Fatalf("trial %d workers=%d q=%v: progressive (%d, %x) != brute force (%d, %x)",
						trial, workers, q, idx, math.Float64bits(d), wantIdx, math.Float64bits(wantD))
				}
				cur := &server.PruneStats{
					Candidates: st.Candidates, ScreenSurvivors: st.ScreenSurvivors,
					RefineAbandoned: st.RefineAbandoned,
					CellsEvaluated:  st.CellsEvaluated, CoordinatesTotal: st.CoordinatesTotal,
				}
				if refStats == nil {
					refStats = cur
				} else if *refStats != *cur {
					t.Fatalf("trial %d workers=%d q=%v: stats %+v differ from %+v",
						trial, workers, q, cur, refStats)
				}

				c, m, ad, _, err := sn.ProgressiveAssign(ctx, q, workers, nil, 0)
				if err != nil {
					t.Fatalf("trial %d workers=%d: ProgressiveAssign(%v): %v", trial, workers, q, err)
				}
				if c != wantC || m != wantM || math.Float64bits(ad) != math.Float64bits(wantAD) {
					t.Fatalf("trial %d workers=%d q=%v: assign (%d, %d, %x) != brute force (%d, %d, %x)",
						trial, workers, q, c, m, math.Float64bits(ad), wantC, wantM, math.Float64bits(wantAD))
				}
			}
		}
	}
}

// plantedTable builds a table whose 8x8 grid tiles split into a tight
// cluster of near-duplicates (every fifth tile) and a far-away
// majority — the separated regime where the bounds rule out nearly
// every candidate (uniform noise concentrates distances and defeats
// pruning, so the random fixture alone would leave them little to do).
func plantedTable(rows, cols int, seed uint64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, 0x91a47ed))
	base := make([]float64, 64)
	for i := range base {
		base[i] = rng.Float64()*4 - 2
	}
	tb := table.New(rows, cols)
	for tr := 0; tr < rows/8; tr++ {
		for tc := 0; tc < cols/8; tc++ {
			near := (tr*(cols/8)+tc)%5 == 0
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					if near {
						tb.Set(tr*8+r, tc*8+c, base[r*8+c]+0.05*rng.NormFloat64())
					} else {
						tb.Set(tr*8+r, tc*8+c, 40+10*rng.NormFloat64())
					}
				}
			}
		}
	}
	return tb
}

var (
	plantedOnce sync.Once
	plantedSn   *server.Snapshot
)

func planted(t *testing.T) *server.Snapshot {
	t.Helper()
	plantedOnce.Do(func() {
		plantedSn = buildSnap(t, plantedTable(64, 64, 5), 1, 64, 8, 4, 11)
	})
	return plantedSn
}

// TestPruneRecallStatistical is the recall acceptance the benchmark's
// serve_refine run repeats: across 200 seeded trials per (ε, δ) setting,
// the answer to a query with mode=prune's knobs must be the exact nearest
// tile in at least a 1−δ fraction. Since mode=prune runs the exact engine
// the fraction is 1, and that is what is asserted; the bounds, not a
// sketch screen, are what rule candidates out.
func TestPruneRecallStatistical(t *testing.T) {
	ctx := context.Background()
	snaps := []*server.Snapshot{snap(t), planted(t)}
	for _, setting := range []struct{ epsilon, delta float64 }{
		{0.1, 0.05},
		{0.3, 0.01},
	} {
		const trials = 200
		matches, abandoned := 0, 0
		rng := rand.New(rand.NewPCG(0x2ECA11, uint64(math.Float64bits(setting.delta))))
		for trial := 0; trial < trials; trial++ {
			sn := snaps[trial%len(snaps)]
			q := table.Rect{R0: rng.IntN(57), C0: rng.IntN(57), Rows: 8, Cols: 8}
			plan, err := sn.Plan(setting.delta)
			if err != nil {
				t.Fatalf("plan(delta=%v): %v", setting.delta, err)
			}
			wantIdx, wantD, err := sn.ExactNearest(ctx, q, 0)
			if err != nil {
				t.Fatalf("ExactNearest: %v", err)
			}
			idx, d, st, err := sn.ProgressiveNearest(ctx, q, 0, plan, setting.epsilon)
			if err != nil {
				t.Fatalf("ProgressiveNearest: %v", err)
			}
			if idx == wantIdx && math.Float64bits(d) == math.Float64bits(wantD) {
				matches++
			}
			abandoned += st.RefineAbandoned
		}
		if matches != trials {
			t.Errorf("(epsilon=%v, delta=%v): recall %d/%d, want every answer the exact nearest",
				setting.epsilon, setting.delta, matches, trials)
		}
		if abandoned == 0 {
			t.Errorf("(epsilon=%v, delta=%v): no candidate ruled out across %d trials; test is vacuous",
				setting.epsilon, setting.delta, trials)
		}
	}
}

// TestPruneEqualsExact: mode=prune runs the exact engine. On noise and
// planted tables at p ∈ {0.5, 1, 2} (every grid tile and two off-grid
// queries) and on every grid tile of the benchmark's fixture at seeds 1
// and 2, a mode=prune nearest or assign — single GET and batch, at workers
// 1, 2 and GOMAXPROCS — answers the tile or medoid and the distance bits
// of mode=exact, tagged pruned, and its prune block is the auto tier's
// (cells_evaluated included) with the knobs echoed: margin exact, no
// lanes, nothing pruned, every candidate a survivor.
func TestPruneEqualsExact(t *testing.T) {
	type fixture struct {
		name string
		sn   *server.Snapshot
	}
	var fixtures []fixture
	for i, p := range []float64{0.5, 1, 2} {
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("noise p=%v", p), buildSnap(t, workload.Random(32, 64, 10, 7+uint64(i)), p, 16, 8, 3, 3)},
			fixture{fmt.Sprintf("planted p=%v", p), buildSnap(t, plantedTable(32, 64, 5+uint64(i)), p, 16, 8, 3, 3)},
		)
	}
	if !testing.Short() {
		for _, seed := range []uint64{1, 2} {
			fixtures = append(fixtures, fixture{fmt.Sprintf("benchmark fixture seed %d", seed), server.BenchmarkFixture(t, seed)})
		}
	}
	const knobs = "&epsilon=0.3&delta=0.01"
	for _, fx := range fixtures {
		tr, tc := fx.sn.TileRows(), fx.sn.TileCols()
		grid, err := table.NewGrid(fx.sn.Table().Rows(), fx.sn.Table().Cols(), tr, tc)
		if err != nil {
			t.Fatal(err)
		}
		var queries []table.Rect
		for i := 0; i < grid.NumTiles(); i++ {
			queries = append(queries, grid.Rect(i))
		}
		if len(queries) < 64 {
			queries = append(queries, table.Rect{R0: 3, C0: 5, Rows: tr, Cols: tc}, table.Rect{R0: tr, C0: tc / 2, Rows: tr, Cols: tc})
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			s, err := server.New(fx.sn, server.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			serve := func(req *http.Request) []byte {
				t.Helper()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Fatalf("%s workers=%d: %s %s answered %d %s", fx.name, workers, req.Method, req.URL, w.Code, w.Body)
				}
				return w.Body.Bytes()
			}
			for _, op := range []string{"nearest", "assign"} {
				batch := server.BatchRequest{Mode: server.ModePrune, Epsilon: ptr(0.3), Delta: ptr(0.01)}
				var singles [][]byte
				for _, q := range queries {
					path := "/v1/" + op + "?q=" + server.FormatRect(q) + "&mode="
					var exact, auto, pruned server.NearestResult
					var exactA, autoA, prunedA server.AssignResult
					body := serve(httptest.NewRequest(http.MethodGet, path+server.ModePrune+knobs, nil))
					singles = append(singles, bytes.TrimSuffix(body, []byte("\n")))
					if op == "nearest" {
						mustUnmarshal(t, body, &pruned)
						mustUnmarshal(t, serve(httptest.NewRequest(http.MethodGet, path+server.ModeExact, nil)), &exact)
						mustUnmarshal(t, serve(httptest.NewRequest(http.MethodGet, path+server.ModeAuto, nil)), &auto)
						exactA = server.AssignResult{Cluster: exact.Tile, Distance: exact.Distance}
						autoA = server.AssignResult{Cluster: auto.Tile, Distance: auto.Distance, Prune: auto.Prune}
						prunedA = server.AssignResult{Cluster: pruned.Tile, Distance: pruned.Distance, Tier: pruned.Tier, Prune: pruned.Prune}
					} else {
						mustUnmarshal(t, body, &prunedA)
						mustUnmarshal(t, serve(httptest.NewRequest(http.MethodGet, path+server.ModeExact, nil)), &exactA)
						mustUnmarshal(t, serve(httptest.NewRequest(http.MethodGet, path+server.ModeAuto, nil)), &autoA)
						if prunedA.Medoid != exactA.Medoid {
							t.Fatalf("%s workers=%d %s q=%v: medoid %d, mode=exact %d", fx.name, workers, op, q, prunedA.Medoid, exactA.Medoid)
						}
					}
					if prunedA.Cluster != exactA.Cluster || math.Float64bits(prunedA.Distance) != math.Float64bits(exactA.Distance) || prunedA.Tier != server.TierPruned {
						t.Fatalf("%s workers=%d %s q=%v: mode=prune (%d, %x, %s), mode=exact (%d, %x)", fx.name, workers, op, q,
							prunedA.Cluster, math.Float64bits(prunedA.Distance), prunedA.Tier, exactA.Cluster, math.Float64bits(exactA.Distance))
					}
					ps, want := *prunedA.Prune, *autoA.Prune
					want.Epsilon, want.Delta = 0.3, 0.01
					if ps != want || ps.Margin != server.MarginExact || ps.LanesEvaluated != 0 || ps.PrunedCandidates != 0 || ps.ScreenSurvivors != ps.Candidates {
						t.Fatalf("%s workers=%d %s q=%v: prune block %+v, auto tier's %+v", fx.name, workers, op, q, ps, *autoA.Prune)
					}
					batch.Items = append(batch.Items, server.BatchItem{Q: server.FormatRect(q)})
				}
				body, err := json.Marshal(&batch)
				if err != nil {
					t.Fatal(err)
				}
				var br server.BatchResponse
				mustUnmarshal(t, serve(httptest.NewRequest(http.MethodPost, "/v1/batch/"+op, bytes.NewReader(body))), &br)
				for i, item := range br.Items {
					if !bytes.Equal(item, singles[i]) {
						t.Fatalf("%s workers=%d batch %s item %d: %s, single GET %s", fx.name, workers, op, i, item, singles[i])
					}
				}
			}
		}
	}
}

func mustUnmarshal(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
}

// TestPruneCounterDeltas pins the prune expvar counters and the
// per-response stats to exact values on a fixed fixture query: the
// counters must advance by precisely the response's own numbers.
func TestPruneCounterDeltas(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	q := table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8} // grid tile 9

	before := server.ReadStats()
	var nr server.NearestResult
	getJSON(t, ts.URL+"/v1/nearest?q="+server.FormatRect(q)+"&mode=prune", 200, &nr)
	if nr.Tier != server.TierPruned || nr.Degraded || nr.Prune == nil {
		t.Fatalf("mode=prune: got %+v", nr)
	}
	ps := nr.Prune
	if ps.Margin != server.MarginExact ||
		ps.Epsilon != server.DefaultPruneEpsilon || ps.Delta != server.DefaultPruneDelta {
		t.Errorf("prune stats knobs: %+v", ps)
	}
	// The fixture grid has 64 tiles; q is tile 9, so 63 candidates of
	// 8x8 = 64 cells each, every one of them refined or ruled out by its
	// bound — no sketch lane read.
	if ps.Candidates != 63 || ps.CoordinatesTotal != 63*64 {
		t.Errorf("candidates %d / total %d, want 63 / %d", ps.Candidates, ps.CoordinatesTotal, 63*64)
	}
	if ps.ScreenSurvivors != ps.Candidates || ps.PrunedCandidates != 0 || ps.LanesEvaluated != 0 {
		t.Errorf("survivors %d, pruned %d, lanes %d: want %d, 0, 0", ps.ScreenSurvivors, ps.PrunedCandidates, ps.LanesEvaluated, ps.Candidates)
	}
	if want := ps.CoordinatesTotal - ps.CellsEvaluated; ps.PrunedCoordinates != max(want, 0) {
		t.Errorf("pruned_coordinates %d inconsistent with cells %d of %d",
			ps.PrunedCoordinates, ps.CellsEvaluated, ps.CoordinatesTotal)
	}
	after := server.ReadStats()
	if d := after.PrunedCoordinates - before.PrunedCoordinates; d != ps.PrunedCoordinates {
		t.Errorf("tabmine_pruned_coordinates advanced %d, response says %d", d, ps.PrunedCoordinates)
	}
	if d := after.ScreenSurvivors - before.ScreenSurvivors; d != int64(ps.ScreenSurvivors) {
		t.Errorf("tabmine_screen_survivors advanced %d, response says %d", d, ps.ScreenSurvivors)
	}

	// Auto queries ride the same engine: same counters, and the answer
	// fields match mode=exact bit for bit.
	before = after
	var auto, exact server.NearestResult
	getJSON(t, ts.URL+"/v1/nearest?q="+server.FormatRect(q), 200, &auto)
	getJSON(t, ts.URL+"/v1/nearest?q="+server.FormatRect(q)+"&mode=exact", 200, &exact)
	if auto.Prune == nil || auto.Prune.Margin != server.MarginExact || auto.Prune.Epsilon != 0 || auto.Prune.Delta != 0 {
		t.Fatalf("auto nearest prune stats: %+v", auto.Prune)
	}
	if exact.Prune != nil {
		t.Errorf("mode=exact carries prune stats: %+v", exact.Prune)
	}
	if auto.Tile != exact.Tile || auto.Rect != exact.Rect ||
		math.Float64bits(auto.Distance) != math.Float64bits(exact.Distance) {
		t.Errorf("auto answer (%d, %s, %x) != exact (%d, %s, %x)",
			auto.Tile, auto.Rect, math.Float64bits(auto.Distance),
			exact.Tile, exact.Rect, math.Float64bits(exact.Distance))
	}
	after = server.ReadStats()
	if d := after.ScreenSurvivors - before.ScreenSurvivors; d != int64(auto.Prune.ScreenSurvivors) {
		t.Errorf("auto tier: tabmine_screen_survivors advanced %d, response says %d", d, auto.Prune.ScreenSurvivors)
	}

	// Assign honors the same mode and counters.
	before = after
	var ar server.AssignResult
	getJSON(t, ts.URL+"/v1/assign?q="+server.FormatRect(q)+"&mode=prune&epsilon=0.3&delta=0.01", 200, &ar)
	if ar.Tier != server.TierPruned || ar.Prune == nil ||
		ar.Prune.Epsilon != 0.3 || ar.Prune.Delta != 0.01 || ar.Prune.Candidates != 4 {
		t.Fatalf("assign mode=prune: %+v prune=%+v", ar, ar.Prune)
	}
	after = server.ReadStats()
	if d := after.ScreenSurvivors - before.ScreenSurvivors; d != int64(ar.Prune.ScreenSurvivors) {
		t.Errorf("assign: tabmine_screen_survivors advanced %d, response says %d", d, ar.Prune.ScreenSurvivors)
	}

	// Parameter and mode validation.
	for _, bad := range []string{
		"/v1/nearest?q=8,8,8,8&mode=prune&epsilon=-1",
		"/v1/nearest?q=8,8,8,8&mode=prune&epsilon=wat",
		"/v1/nearest?q=8,8,8,8&mode=prune&delta=0",
		"/v1/nearest?q=8,8,8,8&mode=prune&delta=1",
		"/v1/assign?q=8,8,8,8&mode=prune&delta=nope",
		"/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=prune",
	} {
		if code, _, body := wiretest.Get(t, ts.URL+bad); code != 400 {
			t.Errorf("GET %s: status %d, want 400 (body %s)", bad, code, body)
		}
	}
}

// TestPruneResponsesWorkerInvariant: the serialized response bytes of
// prune-mode and auto queries — including the embedded statistics —
// must not depend on the server's worker count.
func TestPruneResponsesWorkerInvariant(t *testing.T) {
	paths := []string{
		"/v1/nearest?q=3,5,8,8&mode=prune",
		"/v1/nearest?q=0,0,8,8&mode=prune&epsilon=0.3&delta=0.01",
		"/v1/nearest?q=16,24,8,8",
		"/v1/assign?q=3,5,8,8&mode=prune",
		"/v1/assign?q=16,24,8,8",
	}
	var want [][]byte
	for i, workers := range []int{1, 2, 0} {
		s, err := server.New(snap(t), server.Config{Workers: workers})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		for j, path := range paths {
			code, _, body := wiretest.Get(t, ts.URL+path)
			if code != 200 {
				t.Fatalf("workers=%d GET %s: status %d (body %s)", workers, path, code, body)
			}
			if i == 0 {
				want = append(want, body)
			} else if !bytes.Equal(body, want[j]) {
				t.Errorf("workers=%d GET %s:\n  got  %s\n  want %s", workers, path, body, want[j])
			}
		}
		ts.Close()
	}
}

// TestPruneDuringSwapRace hammers mode=prune nearest queries while the
// snapshot swaps continuously: every answer must be fully consistent
// with exactly one generation (the race detector checks the memory
// side under tier-1's -race run; the byte assertion checks the answer
// side).
func TestPruneDuringSwapRace(t *testing.T) {
	tb2 := workload.Random(64, 64, 100, 123)
	pool2, err := core.NewPool(tb2, 1, 64, 42, core.PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := server.BuildSnapshot(context.Background(), tb2, pool2, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, server.Config{MaxInflight: 8})
	const q = "/v1/nearest?q=3,5,8,8&mode=prune&delta=0.02"

	_, _, wantA := wiretest.Get(t, ts.URL+q)
	s.Swap(snap2)
	_, _, wantB := wiretest.Get(t, ts.URL+q)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture snapshots answer identically; race assertion would be vacuous")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, body := wiretest.Get(t, ts.URL+q)
				if code != 200 {
					t.Errorf("prune query during swap: status %d (body %s)", code, body)
					return
				}
				if !bytes.Equal(body, wantA) && !bytes.Equal(body, wantB) {
					t.Errorf("blended prune answer during swap: %s", body)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			s.Swap(snap(t))
		} else {
			// A fresh snapshot over the same data: its buffer pools start
			// empty, so queries race their first use too.
			fresh, err := server.BuildSnapshot(context.Background(), tb2, pool2, server.SnapshotConfig{
				TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
			})
			if err != nil {
				t.Errorf("rebuild: %v", err)
				break
			}
			s.Swap(fresh)
		}
	}
	close(stop)
	wg.Wait()
}
