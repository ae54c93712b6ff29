// Tests that can see a wrong plan. The coordinator plans a request, not
// an item: what a request's items need from one shard travels in one
// sub-request per hop. Two things must then hold that no single-query
// test can see — a batch's items are still, byte for byte, the answers
// the same queries get alone, whatever else shares their frames; and the
// number of sub-requests depends on the shards, not on the items.
package coord

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
)

func noShardConfig(int) server.Config { return server.Config{} }

// postBatch sends items as one batch and returns the answer.
func postBatch(t testing.TB, base, op string, vals url.Values, items []server.BatchItem) *server.BatchResponse {
	t.Helper()
	return postBatchBody(t, base, op, vals, &server.BatchRequest{Items: items})
}

// postBatchBody is postBatch of a whole batch body.
func postBatchBody(t testing.TB, base, op string, vals url.Values, req *server.BatchRequest) *server.BatchResponse {
	t.Helper()
	items := req.Items
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batch/"+op+"?"+vals.Encode(), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil || resp.StatusCode != 200 || len(br.Items) != len(items) {
		t.Fatalf("batch/%s: status %d, body %s (%v)", op, resp.StatusCode, raw, err)
	}
	return &br
}

func rectAt(r0, c0, rows, cols int) string {
	return server.FormatRect(table.Rect{R0: r0, C0: c0, Rows: rows, Cols: cols})
}

// TestBatchEqualsSingles: every item of a batch is the body of the same
// query sent as a single GET — the answer, or the error, whose status
// the single alone can carry — on fleets of two and three shards, with
// the items of one batch owned by different shards, bad items in the
// middle, and one shard unreachable under both partial policies; and on
// a fleet of one shard, in every mode the coordinator serves, where each
// answer is also the shard's own.
func TestBatchEqualsSingles(t *testing.T) {
	tile := func(i int) string { return server.FormatRect(tileRect(i)) }
	scans := []server.BatchItem{
		{Q: tile(0)}, {Q: tile(17)}, {Q: tile(11)},
		{Q: "not-a-rect"},
		{Q: tile(40)}, {Q: tile(6)},
		{Q: rectAt(0, 200, 8, 8)}, // outside the table
		{Q: rectAt(0, 0, 8, 16)},  // not one tile in size
		{Q: rectAt(8, 44, 8, 8)},  // spans the boundary at column 48 (two shards)
		{Q: rectAt(8, 28, 8, 8)},  // spans the boundary at column 32 (three shards)
		{Q: tile(47)}, {Q: tile(0)},
	}
	distances := []server.BatchItem{
		{A: tile(0), B: tile(11)}, {A: tile(4), B: tile(9)},
		{A: tile(0), B: tile(13)}, // co-resident: answered whole by its owner
		{A: "nope", B: tile(1)},
		{A: tile(30), B: tile(1)},
		{A: rectAt(0, 24, 8, 16), B: rectAt(16, 56, 8, 16)}, // both span boundaries (three shards): refused
		{A: tile(0), B: rectAt(0, 200, 8, 8)},               // outside the table
		{A: tile(0), B: rectAt(0, 64, 8, 16)},               // different sizes
		{A: rectAt(8, 40, 16, 16), B: rectAt(0, 72, 16, 16)},
		{A: rectAt(8, 40, 8, 16), B: rectAt(16, 0, 8, 16)}, // a spans column 48 (two shards): refused
		{A: tile(46), B: tile(2)},
	}
	type fault struct {
		name, partial string
		down          bool
	}
	faults := []fault{{"healthy", "", false}, {"last shard down, partial=allow", "allow", true}, {"last shard down, partial=deny", "deny", true}}

	for _, width := range []int{fleetCols, 48, 32} {
		t.Run(fmt.Sprintf("%d shards", fleetCols/width), func(t *testing.T) {
			f := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, width)
			modes, faults := []string{server.ModeSketch}, faults
			if width == fleetCols {
				// One range answers every item whole, on every tier; with
				// no other shard there is no partial answer to test.
				modes, faults = []string{server.ModeSketch, server.ModeExact, server.ModeAuto}, faults[:1]
			}
			for _, ft := range faults {
				if last := f.shards[len(f.shards)-1]; ft.down && last.kill.Load() == nil {
					// Severed connections, then ejected: from here on the
					// range has no live endpoint, for batches and singles alike.
					br := &faultinject.Breaker{}
					br.Trip()
					last.kill.Store(br)
					requireSevered(t, f, last, br)
					waitState(t, f, len(f.shards)-1, StateDead)
				}
				for _, mode := range modes {
					for op, items := range map[string][]server.BatchItem{"nearest": scans, "assign": scans, "distance": distances} {
						name := ft.name + "/" + op
						if len(modes) > 1 {
							name += "/" + mode
						}
						t.Run(name, func(t *testing.T) {
							vals := url.Values{"mode": {mode}}
							if ft.partial != "" {
								vals.Set("partial", ft.partial)
							}
							ref := "" // one range answers as its one shard does
							if len(f.shards) == 1 {
								ref = f.shards[0].url()
							}
							served, partial := wiretest.BatchEqualsSingles(t, f.ts.URL, ref, op, vals, items)
							// The fixture must reach what it claims to: answers and
							// refusals in one batch (a scan under deny needs every
							// shard, so there every item is refused), and under a
							// fault the tagged partials of a scan (allow) or none at
							// all (deny). A distance is never partial: its operands'
							// owners answer, or the item is an error.
							if served == len(items) || (served == 0 && (ft.partial != "deny" || op == "distance")) {
								t.Errorf("%d of %d items served: the batch does not mix answers and errors", served, len(items))
							}
							if wantPartial := ft.partial == "allow" && op != "distance"; wantPartial != (partial > 0) {
								t.Errorf("%d partial answers under %q", partial, ft.name)
							}
						})
					}
				}
			}
		})
	}
}

// TestWholeFrameDeadline: when a one-range fleet's batch runs out of
// time on its shard, the items the shard answered before the deadline
// still reach the client, and every item reads as the shard's own batch
// route reads it. The shard's item hook holds item 2 past the shard's
// deadline: a scan answers items 0 and 1 and fails the rest with
// "deadline expired mid-computation"; a distance batch, whose hooks run
// in its pre-pass, falls back to the sketch tier for every auto item.
// The coordinator gives its shard the request's budget less MergeReserve
// (1.5 s − 1 s), the direct batch that budget itself.
func TestWholeFrameDeadline(t *testing.T) {
	const slow, hold = 2, 800 * time.Millisecond
	f := newFleetCols(t, fleetTable(), Config{MergeReserve: time.Second}, false, func(int) server.Config {
		return server.Config{ItemHook: func(_ string, i int) error {
			if i == slow {
				time.Sleep(hold)
			}
			return nil
		}}
	}, fleetCols)
	tile := func(i int) string { return server.FormatRect(tileRect(i)) }
	scans := []server.BatchItem{{Q: tile(0)}, {Q: tile(17)}, {Q: tile(11)}, {Q: tile(40)}}
	for _, tc := range []struct {
		op, mode         string
		items            []server.BatchItem
		served, degraded int
	}{
		{"nearest", server.ModeExact, scans, slow, 0},
		{"assign", server.ModeAuto, scans, slow, 0},
		{"distance", server.ModeAuto, []server.BatchItem{{A: tile(0), B: tile(11)}, {A: tile(4), B: tile(9)}, {A: tile(1), B: tile(2)}, {A: tile(5), B: tile(6)}}, 4, 4},
	} {
		t.Run(tc.op+"/"+tc.mode, func(t *testing.T) {
			coord := postBatchBody(t, f.ts.URL, tc.op, nil, &server.BatchRequest{Items: tc.items, Mode: tc.mode, TimeoutMS: 1500})
			shard := postBatchBody(t, f.shards[0].url(), tc.op, nil, &server.BatchRequest{Items: tc.items, Mode: tc.mode, TimeoutMS: 500})
			for i := range tc.items {
				if !bytes.Equal(coord.Items[i], shard.Items[i]) {
					t.Errorf("item %d:\n  coordinator %s\n  shard       %s", i, coord.Items[i], shard.Items[i])
				}
			}
			if coord.Served != tc.served || coord.Degraded != tc.degraded {
				t.Errorf("served %d (%d degraded), want %d (%d)", coord.Served, coord.Degraded, tc.served, tc.degraded)
			}
		})
	}
}

// TestWholeExactFrameIsNotHedged: a whole frame on the exact or auto
// tier runs longer than HedgeDelay by design, so on a replicated range
// it goes to one replica and is not recomputed on the other; a
// sketch-tier whole frame is still hedged. Each replica's hook holds
// item 0 for three hedge delays.
func TestWholeExactFrameIsNotHedged(t *testing.T) {
	f := newFleetCols(t, fleetTable(), Config{}, true, func(int) server.Config {
		return server.Config{ItemHook: func(_ string, i int) error {
			if i == 0 {
				time.Sleep(60 * time.Millisecond)
			}
			return nil
		}}
	}, fleetCols)
	items := []server.BatchItem{{Q: server.FormatRect(tileRect(0))}, {Q: server.FormatRect(tileRect(17))}}
	for _, tc := range []struct {
		mode string
		subs int64
	}{{server.ModeExact, 1}, {server.ModeAuto, 1}, {server.ModeSketch, 2}} {
		before, hedges := shardRequests(), mHedges.Value()
		postBatchBody(t, f.ts.URL, "nearest", nil, &server.BatchRequest{Items: items, Mode: tc.mode})
		if n, h := shardRequests()-before, mHedges.Value()-hedges; n != tc.subs || h != tc.subs-1 {
			t.Errorf("mode=%s: %d sub-requests, %d hedges; want %d and %d", tc.mode, n, h, tc.subs, tc.subs-1)
		}
	}
}

// shardRequests sums tabmine_coord_shard_requests over the endpoints:
// every sub-request the coordinator has launched.
func shardRequests() int64 {
	var n int64
	mShardRequests.Do(func(kv expvar.KeyValue) { n += kv.Value.(*expvar.Int).Value() })
	return n
}

// TestSubRequestsPerRequest pins the sub-request bound: S shard ranges
// cost a scan of n items at most 2·S sub-requests (S when one range owns
// every item), a cross-shard distance batch one per range it touches —
// an item owes each of its two ranges one rectangle, so even the largest
// batch fits one frame a range — and a co-resident distance batch one
// per range that owns its pairs. A fleet of one range answers every
// request in one frame.
func TestSubRequestsPerRequest(t *testing.T) {
	for _, width := range []int{fleetCols, 48, 32} {
		S := fleetCols / width
		t.Run(fmt.Sprintf("%d shards", S), func(t *testing.T) {
			f := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, width)
			gridCols := fleetCols / tileSide
			spread := make([]server.BatchItem, 16) // owners on every shard
			oneOwner := make([]server.BatchItem, 16)
			coResident := make([]server.BatchItem, 16)
			crossShard := make([]server.BatchItem, 16)
			for i := range spread {
				spread[i] = server.BatchItem{Q: server.FormatRect(tileRect(i))}
				oneOwner[i] = server.BatchItem{Q: server.FormatRect(tileRect((i%4)*gridCols + i%2))}
				coResident[i] = server.BatchItem{A: server.FormatRect(tileRect(i % 3)), B: server.FormatRect(tileRect(gridCols + i%3))}
				crossShard[i] = server.BatchItem{A: server.FormatRect(tileRect(i % 4)), B: server.FormatRect(tileRect(gridCols - 1 - i%4))}
			}
			// a lies in the first shard, b in the last: each range owes one
			// rectangle an item, 256 in all — one full frame.
			fullCross := make([]server.BatchItem, server.DefaultMaxBatch)
			for i := range fullCross {
				fullCross[i] = server.BatchItem{A: rectAt(8*(i%4), 8*(i%3), 8, 8), B: rectAt(8*(i%3), fleetCols-8*(1+i%2), 8, 8)}
			}
			sketch := url.Values{"mode": {server.ModeSketch}}
			single := func(path string) func() {
				return func() {
					if code, _, body := wiretest.Get(t, f.ts.URL+path); code != 200 {
						t.Fatalf("%s: %d (%s)", path, code, body)
					}
				}
			}
			batch := func(op string, items []server.BatchItem) func() {
				return func() {
					if br := postBatch(t, f.ts.URL, op, sketch, items); br.Served != len(items) {
						t.Fatalf("batch/%s served %d of %d: %s", op, br.Served, len(items), br.Items)
					}
				}
			}
			for _, c := range []struct {
				name string
				do   func()
				want int64
			}{
				{"single nearest", single("/v1/nearest?q=" + server.FormatRect(tileRect(17))), int64(S)},
				{"single assign", single("/v1/assign?q=" + server.FormatRect(tileRect(17))), int64(S)},
				{"single cross-shard distance", single("/v1/distance?a=" + server.FormatRect(tileRect(0)) + "&b=" + server.FormatRect(tileRect(11))), 2},
				{"batch-16 nearest, owners on every shard", batch("nearest", spread), int64(2 * S)},
				{"batch-16 assign, owners on every shard", batch("assign", spread), int64(2 * S)},
				{"batch-16 nearest, one owner", batch("nearest", oneOwner), int64(S)},
				{"batch-16 cross-shard distance", batch("distance", crossShard), 2},
				{"batch-256 cross-shard distance", batch("distance", fullCross), 2},
				{"batch-16 co-resident distance", batch("distance", coResident), 1},
			} {
				if S == 1 {
					c.want = 1 // one range: nothing crosses a shard, every item is answered whole
				}
				before := shardRequests()
				c.do()
				if got := shardRequests() - before; got != c.want {
					t.Errorf("%s: %d sub-requests, want %d", c.name, got, c.want)
				}
			}
		})
	}
}

// BenchmarkCoordNearest is the coord_fanout workload's headline request
// in miniature — one tile's nearest over two shards, the owner hop and
// the other shard's scan — so what one sub-request costs end to end
// (coordinator, client, carrier, both shards) shows without the paired
// gate.
func BenchmarkCoordNearest(b *testing.B) {
	f := newFleetCols(b, fleetTable(), Config{}, false, noShardConfig, 48)
	u := f.ts.URL + "/v1/nearest?mode=sketch&q=" + server.FormatRect(tileRect(13))
	benchCoord(b, func() (*http.Response, error) { return http.Get(u) })
}

// BenchmarkCoordBatchNearest is the coord_fanout workload's dominant
// request in miniature — a 16-item nearest batch over two shards, owners
// on both — so the sub-request count and the allocations of the whole
// path (coordinator, client, both shards) show without the paired gate.
func BenchmarkCoordBatchNearest(b *testing.B) {
	items := make([]server.BatchItem, 16)
	for i := range items {
		items[i] = server.BatchItem{Q: server.FormatRect(tileRect(i))}
	}
	benchCoordBatch(b, "nearest", items)
}

// BenchmarkCoordBatchDistanceCoResident is a 16-item sketch-tier distance
// batch over two shards whose pairs each lie in one shard, half of them
// in either: every item is answered whole by its owner, which the
// coordinator asks once for all of the items it owns.
func BenchmarkCoordBatchDistanceCoResident(b *testing.B) {
	gridCols := fleetCols / tileSide
	items := make([]server.BatchItem, 16)
	for i := range items {
		c := (i % 2) * gridCols / 2 // the first tile column of either shard
		items[i] = server.BatchItem{A: server.FormatRect(tileRect(c + i%3)), B: server.FormatRect(tileRect(gridCols + c + i%5))}
	}
	benchCoordBatch(b, "distance", items)
}

// benchCoordBatch times one sketch-tier batch of items to op over the
// two-shard fleet.
func benchCoordBatch(b *testing.B, op string, items []server.BatchItem) {
	f := newFleetCols(b, fleetTable(), Config{}, false, noShardConfig, 48)
	body, err := json.Marshal(&server.BatchRequest{Mode: server.ModeSketch, Items: items})
	if err != nil {
		b.Fatal(err)
	}
	benchCoord(b, func() (*http.Response, error) {
		return http.Post(f.ts.URL+"/v1/batch/"+op, "application/json", bytes.NewReader(body))
	})
}

// benchCoord times do, one request to a coordinator, and reports its
// sub-requests beside its allocations.
func benchCoord(b *testing.B, do func() (*http.Response, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	before := shardRequests()
	for i := 0; i < b.N; i++ {
		resp, err := do()
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || n == 0 {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(shardRequests()-before)/float64(b.N), "sub-requests/op")
}
