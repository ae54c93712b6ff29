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

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
)

func noShardConfig(int) server.Config { return server.Config{} }

// postBatch sends items as one batch and returns the answer.
func postBatch(t testing.TB, base, op string, vals url.Values, items []server.BatchItem) *server.BatchResponse {
	t.Helper()
	body, err := json.Marshal(&server.BatchRequest{Items: items})
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
// middle, and one shard unreachable under both partial policies.
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
		{A: tile(0), B: tile(13)}, // co-resident: proxied
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

	for _, width := range []int{48, 32} {
		t.Run(fmt.Sprintf("%d shards", fleetCols/width), func(t *testing.T) {
			f := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, width)
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
				for op, items := range map[string][]server.BatchItem{"nearest": scans, "assign": scans, "distance": distances} {
					t.Run(ft.name+"/"+op, func(t *testing.T) {
						vals := url.Values{"mode": {server.ModeSketch}}
						if ft.partial != "" {
							vals.Set("partial", ft.partial)
						}
						br := postBatch(t, f.ts.URL, op, vals, items)
						served, partial := 0, 0
						for i, it := range items {
							single := url.Values{"mode": vals["mode"], "partial": vals["partial"]}
							for k, v := range map[string]string{"a": it.A, "b": it.B, "q": it.Q} {
								if v != "" {
									single.Set(k, v)
								}
							}
							code, _, body := httpGet(t, f.ts.URL+"/v1/"+op+"?"+single.Encode())
							if want := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(br.Items[i], want) {
								t.Errorf("item %d (%+v):\n  batch  %s\n  single %s (status %d)", i, it, br.Items[i], want, code)
							}
							if code == 200 {
								served++
							}
							if bytes.Contains(body, []byte(`"partial":true`)) {
								partial++
							}
						}
						if br.Served != served || br.Failed != len(items)-served {
							t.Errorf("batch served %d failed %d; the singles answered %d of %d", br.Served, br.Failed, served, len(items))
						}
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
		})
	}
}

// shardRequests sums tabmine_coord_shard_requests over the endpoints:
// every sub-request and proxied query the coordinator has launched.
func shardRequests() int64 {
	var n int64
	mShardRequests.Do(func(kv expvar.KeyValue) { n += kv.Value.(*expvar.Int).Value() })
	return n
}

// TestSubRequestsPerRequest pins the sub-request bound: S shard ranges
// cost a scan of n items at most 2·S sub-requests (S when one range owns
// every item), a cross-shard distance batch one per range it touches —
// an item owes each of its two ranges one rectangle, so even the largest
// batch fits one frame a range — and only the co-resident proxy, which
// this plan leaves alone, still costs one request an item.
func TestSubRequestsPerRequest(t *testing.T) {
	for _, width := range []int{48, 32} {
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
					if code, _, body := httpGet(t, f.ts.URL+path); code != 200 {
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
				{"batch-16 co-resident distance", batch("distance", coResident), 16},
			} {
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
	f := newFleetCols(b, fleetTable(), Config{}, false, noShardConfig, 48)
	items := make([]server.BatchItem, 16)
	for i := range items {
		items[i] = server.BatchItem{Q: server.FormatRect(tileRect(i))}
	}
	body, err := json.Marshal(&server.BatchRequest{Mode: server.ModeSketch, Items: items})
	if err != nil {
		b.Fatal(err)
	}
	benchCoord(b, func() (*http.Response, error) {
		return http.Post(f.ts.URL+"/v1/batch/nearest", "application/json", bytes.NewReader(body))
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
