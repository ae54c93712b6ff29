// The wire contract of the coordinator's six query routes (three single
// GETs, three batch POSTs), the companion of internal/server's
// contract_test.go: per route, the status, Retry-After / Allow header,
// exact error text and counter deltas of every condition the handler
// distinguishes — and that a request refused for what it says sends no
// sub-query to any shard; and the state /readyz names in its 503.
//
// Written against the parent commit's two handlers; the one row that
// fails there is "[wire 4]", the batch item bound the coordinator now
// shares with the servers it fronts. "[wire 5]" is the server's: a batch
// body with anything but white space after its JSON value is refused.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/server"
)

type ctRoute struct {
	name  string
	op    string // distance | nearest | assign
	batch bool
}

var ctRoutes = []ctRoute{
	{"distance", "distance", false},
	{"nearest", "nearest", false},
	{"assign", "assign", false},
	{"batch/distance", "distance", true},
	{"batch/nearest", "nearest", true},
	{"batch/assign", "assign", true},
}

const ctItems = 2

// ctVariant bends a valid request out of shape; see the server's table.
// urlMode rides the URL even on a batch, whose own mode is in the body.
type ctVariant struct {
	method           string
	timeout          string
	mode, urlMode    string
	partial, rawBody string
	tail             string // appended to an encoded batch body
	items            int    // batch item count; 0 = ctItems, -1 = none
}

func (rt ctRoute) request(t *testing.T, base string, v ctVariant) *http.Request {
	t.Helper()
	// Tiles 0 and 13 live on shard 0, so distance is co-resident; the
	// scans fan out over all three shards.
	a, b, q := server.FormatRect(tileRect(0)), server.FormatRect(tileRect(13)), server.FormatRect(tileRect(17))
	vals := url.Values{}
	set := func(k, s string) {
		if s != "" {
			vals.Set(k, s)
		}
	}
	set("partial", v.partial)
	set("mode", v.urlMode)
	method, path := http.MethodGet, "/v1/"+rt.op
	var body []byte
	if rt.batch {
		method, path = http.MethodPost, "/v1/batch/"+rt.op
		req := server.BatchRequest{Mode: v.mode}
		if v.timeout != "" {
			ms, err := strconv.Atoi(v.timeout)
			if err != nil {
				t.Fatal(err)
			}
			req.TimeoutMS = ms
		}
		n := v.items
		if n == 0 {
			n = ctItems
		}
		for i := 0; i < n; i++ {
			if rt.op == "distance" {
				req.Items = append(req.Items, server.BatchItem{A: a, B: b})
			} else {
				req.Items = append(req.Items, server.BatchItem{Q: q})
			}
		}
		var err error
		if body, err = json.Marshal(&req); err != nil {
			t.Fatal(err)
		}
		body = append(body, v.tail...)
		if v.rawBody != "" {
			body = []byte(v.rawBody)
		}
	} else {
		if rt.op == "distance" {
			vals.Set("a", a)
			vals.Set("b", b)
		} else {
			vals.Set("q", q)
		}
		set("mode", v.mode)
		set("timeout_ms", v.timeout)
	}
	if v.method != "" {
		method = v.method
	}
	u := base + path
	if enc := vals.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

type ctWant struct {
	code       int
	retryAfter string
	allow      string
	err        string // "error" of a non-200 body; "" = do not compare
	itemErr    string // batch 200: every item is this error

	served, unavailable int64
	subqueries          int64 // -1 = do not compare
}

func ctDo(t *testing.T, req *http.Request, want ctWant) []byte {
	t.Helper()
	before, subBefore := ReadStats(), server.ReadStats().ShardSubqueries
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	after, subAfter := ReadStats(), server.ReadStats().ShardSubqueries

	if resp.StatusCode != want.code {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, want.code, body)
	}
	if got := resp.Header.Get("Retry-After"); got != want.retryAfter {
		t.Errorf("Retry-After %q, want %q", got, want.retryAfter)
	}
	if got := resp.Header.Get("Allow"); got != want.allow {
		t.Errorf("Allow %q, want %q", got, want.allow)
	}
	if want.code != http.StatusOK && want.err != "" {
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error != want.err {
			t.Errorf("error body %s, want error %q", body, want.err)
		}
	}
	if want.itemErr != "" {
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("batch body %s: %v", body, err)
		}
		if len(br.Items) != ctItems || br.Failed != ctItems || br.Served != 0 {
			t.Errorf("batch counts %+v, want %d failed items", br, ctItems)
		}
		wantItem, _ := json.Marshal(map[string]string{"error": want.itemErr})
		for i, it := range br.Items {
			if !bytes.Equal(it, wantItem) {
				t.Errorf("item %d: %s, want %s", i, it, wantItem)
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"coord_requests_total", after.Requests - before.Requests, 1},
		{"coord_requests_served", after.Served - before.Served, want.served},
		{"coord_requests_unavailable", after.Unavailable - before.Unavailable, want.unavailable},
		{"shard_subqueries", subAfter - subBefore, want.subqueries},
	} {
		if c.got != c.want && c.want >= 0 {
			t.Errorf("counter %s advanced %d, want %d", c.name, c.got, c.want)
		}
	}
	return body
}

// okWant is the answer of a healthy fleet. A co-resident distance — one
// item or the batch's two — is one frame to its owner; a scan — one item
// or the batch's two, which share an owner — is one owner frame and one
// frame to each of the two other shards.
func (rt ctRoute) okWant() ctWant {
	w := ctWant{code: 200, served: 1, subqueries: 3}
	if rt.op == "distance" {
		w.subqueries = 1
	}
	if rt.batch {
		w.served = ctItems
	}
	return w
}

type ctRefusal struct {
	name string
	v    ctVariant
	code int
	err  string
}

func (rt ctRoute) refusals() []ctRefusal {
	const shardLocal = "mode=prune is shard-local; query a shard directly"
	out := []ctRefusal{
		{"bad mode", ctVariant{mode: "wat"}, 400, `bad mode "wat"`},
		{"mode=prune", ctVariant{mode: server.ModePrune}, 400, shardLocal},
		{"bad partial", ctVariant{partial: "sometimes"}, 400, `bad partial "sometimes" (want allow or deny)`},
	}
	if !rt.batch {
		return append(out,
			ctRefusal{"bad timeout_ms", ctVariant{timeout: "soon"}, 400, `bad timeout_ms "soon"`},
			ctRefusal{"zero timeout_ms", ctVariant{timeout: "0"}, 400, `bad timeout_ms "0"`})
	}
	return append(out,
		ctRefusal{"wrong method", ctVariant{method: http.MethodGet}, 405, "batch endpoints accept POST only"},
		ctRefusal{"malformed body", ctVariant{rawBody: "{not json"}, 400,
			"bad batch body: invalid character 'n' looking for beginning of object key string"},
		ctRefusal{"bytes after the value [wire 5]", ctVariant{tail: "0"}, 400,
			"bad batch body: invalid character '0' after top-level value"},
		ctRefusal{"empty batch", ctVariant{items: -1}, 400, "empty batch"},
		ctRefusal{"oversize batch [wire 4]", ctVariant{items: 257}, 400, "batch of 257 items exceeds the 256-item limit"},
		ctRefusal{"bad timeout_ms", ctVariant{timeout: "-1"}, 400, "bad timeout_ms -1"},
		// A batch body that names no mode takes the URL's.
		ctRefusal{"bad mode in the URL", ctVariant{urlMode: "wat"}, 400, `bad mode "wat"`},
	)
}

func TestWireContract(t *testing.T) {
	f := newFleet(t, Config{}, false)

	// A coordinator whose only endpoint never reports has no shard map.
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "not a shard", http.StatusServiceUnavailable)
	}))
	defer silent.Close()
	booting, err := New(Config{Endpoints: []string{silent.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer booting.Close()
	bootingTS := httptest.NewServer(booting.Handler())
	defer bootingTS.Close()

	// Two two-shard fleets that had a map and lost part of it: one whose
	// second range's only endpoint stopped answering until a probe round
	// found it dead, one with a gap at columns 0-48 after their only
	// endpoint was deregistered.
	lost := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	lost.shards[1].down.Store(true)
	waitState(t, lost, 1, StateDead)
	gap := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	if _, err := gap.coord.Deregister(context.Background(), gap.shards[0].url(), false); err != nil {
		t.Fatal(err)
	}

	// A one-shard fleet whose snapshot was built without clustering.
	bareSn, err := server.BuildSnapshot(context.Background(), f.tb, f.refSn.Pool(), server.SnapshotConfig{
		TileRows: tileSide, TileCols: tileSide,
	})
	if err != nil {
		t.Fatal(err)
	}
	bareSrv, err := server.New(bareSn, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bareShard := httptest.NewServer(bareSrv.Handler())
	defer bareShard.Close()
	bare, err := New(Config{Endpoints: []string{bareShard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()

	for _, rt := range ctRoutes {
		rt := rt
		t.Run(rt.name, func(t *testing.T) {
			t.Run("ok", func(t *testing.T) {
				ctDo(t, rt.request(t, f.ts.URL, ctVariant{}), rt.okWant())
			})
			if !rt.batch {
				t.Run("method-agnostic", func(t *testing.T) {
					ctDo(t, rt.request(t, f.ts.URL, ctVariant{method: http.MethodPost}), rt.okWant())
				})
			} else {
				t.Run("ok with a trailing newline", func(t *testing.T) {
					ctDo(t, rt.request(t, f.ts.URL, ctVariant{tail: "\n"}), rt.okWant())
				})
			}
			t.Run("booting", func(t *testing.T) {
				ctDo(t, rt.request(t, bootingTS.URL, ctVariant{method: http.MethodDelete, mode: "wat"}), ctWant{
					code: 503, retryAfter: "1", err: "no shard has reported yet, retry later", unavailable: 1,
				})
			})
			t.Run("refused", func(t *testing.T) {
				for _, r := range rt.refusals() {
					t.Run(r.name, func(t *testing.T) {
						want := ctWant{code: r.code, err: r.err}
						if r.code == http.StatusMethodNotAllowed {
							want.allow = http.MethodPost
						}
						ctDo(t, rt.request(t, f.ts.URL, r.v), want)
					})
				}
			})
			if rt.op == "assign" {
				t.Run("assign without clusters", func(t *testing.T) {
					const msg = "snapshot built without clustering"
					want := ctWant{code: 404, err: msg}
					if rt.batch {
						want = ctWant{code: 200, itemErr: msg}
					}
					ctDo(t, rt.request(t, bareTS.URL, ctVariant{}), want)
				})
			}
		})
	}

	// /readyz refuses with the state it is in: booting while no shard has
	// reported, degraded once a map exists that cannot route every column.
	for _, r := range []struct{ name, base, status string }{
		{"booting", bootingTS.URL, "booting"},
		{"degraded: a range with no live endpoint", lost.ts.URL, "degraded"},
		{"degraded: a gap after a deregister", gap.ts.URL, "degraded"},
	} {
		t.Run("readyz/"+r.name, func(t *testing.T) {
			code, hdr, body := httpGet(t, r.base+"/readyz")
			var got server.Ready
			if err := json.Unmarshal(body, &got); err != nil || code != http.StatusServiceUnavailable ||
				hdr.Get("Retry-After") != "1" || got.Status != r.status {
				t.Errorf("%d Retry-After %q %s, want 503 Retry-After \"1\" status %q", code, hdr.Get("Retry-After"), body, r.status)
			}
		})
	}

	// A fleet of one range answers every route in every mode the
	// coordinator serves — the exact tier and the auto tier's prune block
	// included — with the bytes its one shard answers the same request
	// with.
	one := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols)
	for _, rt := range ctRoutes {
		for _, mode := range []string{server.ModeExact, server.ModeAuto} {
			t.Run("one range/"+rt.name+"/"+mode, func(t *testing.T) {
				want := rt.okWant()
				want.subqueries = 1 // the one shard answers the request whole
				got := ctDo(t, rt.request(t, one.ts.URL, ctVariant{mode: mode}), want)
				ctSameAsShard(t, rt, one.shards[0], ctVariant{mode: mode}, got)
				if mode == server.ModeAuto && rt.op != "distance" && !bytes.Contains(got, []byte(`"prune":{`)) {
					t.Errorf("auto %s without its prune block: %s", rt.op, got)
				}
			})
		}
	}
	// So does a co-resident exact distance on a fleet of three: its
	// operands lie in the first shard's columns, whose coordinates are
	// the table's.
	for _, rt := range ctRoutes {
		if rt.op != "distance" {
			continue
		}
		t.Run("co-resident exact/"+rt.name, func(t *testing.T) {
			v := ctVariant{mode: server.ModeExact}
			want := rt.okWant()
			got := ctDo(t, rt.request(t, f.ts.URL, v), want)
			ctSameAsShard(t, rt, f.shards[0], v, got)
		})
	}
}

// ctSameAsShard asks sp the request rt and v make and requires its 200
// body to be got.
func ctSameAsShard(t *testing.T, rt ctRoute, sp *shardProc, v ctVariant, got []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(rt.request(t, sp.url(), v))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard: status %d, %s (%v)", resp.StatusCode, shard, err)
	}
	if !bytes.Equal(got, shard) {
		t.Errorf("coordinator %s\nshard       %s", got, shard)
	}
}

// TestShardTroubleIs503: whatever keeps the shards from answering — a
// sub-query held past the request's deadline, a shard that fails every
// sub-query — the coordinator's answer on every route is 503 +
// Retry-After (an item error in a batch), never a 4xx that would tell
// the client its query is wrong.
func TestShardTroubleIs503(t *testing.T) {
	t.Run("held past the deadline", func(t *testing.T) {
		f := newFleet(t, Config{}, false)
		gate := faultinject.NewGate()
		defer gate.Open()
		for _, sp := range f.shards {
			sp.gate.Store(gate)
		}
		// The scans wait on the sketch frames (the gate's ops); a co-resident
		// distance goes to its owner whole and is not held.
		for _, rt := range ctRoutes {
			if rt.op == "distance" {
				continue
			}
			t.Run(rt.name, func(t *testing.T) {
				const msg = "query owner shard (cols 32-64) unreachable: context deadline exceeded"
				want := ctWant{code: 503, retryAfter: "1", err: msg, unavailable: 1, subqueries: -1}
				if rt.batch {
					want = ctWant{code: 200, itemErr: msg, subqueries: -1}
				}
				ctDo(t, rt.request(t, f.ts.URL, ctVariant{timeout: "40"}), want)
			})
		}
	})

	t.Run("every sub-query fails", func(t *testing.T) {
		f := newFleetSrv(t, Config{EjectAfter: 1 << 20}, false, func(int) server.Config {
			return server.Config{Hook: func(string) error { return errors.New("injected fault") }}
		})
		for _, rt := range ctRoutes {
			t.Run(rt.name, func(t *testing.T) {
				req := rt.request(t, f.ts.URL, ctVariant{partial: "deny"})
				if rt.batch {
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var br server.BatchResponse
					if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != 200 || br.Failed != ctItems {
						t.Fatalf("status %d body %s: want %d failed items", resp.StatusCode, body, ctItems)
					}
					for i, it := range br.Items {
						if !strings.Contains(string(it), "unreachable") {
							t.Errorf("item %d: %s, want a shard-unreachable error", i, it)
						}
					}
					return
				}
				// The text carries the retrying client's jittered waits.
				ctDo(t, req, ctWant{code: 503, retryAfter: "1", unavailable: 1, subqueries: -1})
			})
		}
	})
}

// TestShedAtTheEdge: the coordinator admits what its shards admit
// together — the slots and queues they report summed — and a request
// beyond that is answered 503 + Retry-After before any sub-request
// leaves for it. Each of the two shards admits 2 and queues 4, so the
// coordinator runs 4 and queues 4·2; the shards hold every sketch frame,
// so the first 4 nearest queries sit in their slots (2 a shard, so no
// shard queues) and the next 8 wait. A request sends a shard at most one
// frame at a time, so no shard sheds what the edge admitted.
func TestShedAtTheEdge(t *testing.T) {
	const shards, slots, queue = 2, 2, 4
	f := newFleetCols(t, fleetTable(), Config{}, false, func(int) server.Config {
		return server.Config{MaxInflight: slots, MaxQueue: queue}
	}, fleetCols/shards)
	gate := faultinject.NewGate()
	defer gate.Open()
	for _, sp := range f.shards {
		sp.gate.Store(gate)
	}
	nearest := func(i int) string { // tile 13 on shard 0, tile 19 on shard 1
		return f.ts.URL + "/v1/nearest?mode=sketch&timeout_ms=10000&q=" + server.FormatRect(tileRect(13+6*(i%2)))
	}
	admitted := shards * (slots + queue)
	codes := make(chan int, admitted)
	ask := func(i int) {
		resp, err := http.Get(nearest(i))
		if err != nil {
			codes <- 0
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	for i := 0; i < shards*slots; i++ {
		go ask(i)
	}
	gate.AwaitArrivals(shards * slots)
	for i := 0; i < shards*queue; i++ {
		go ask(i)
	}
	waitFor(t, "the queue to fill", func() bool { return f.coord.pipe.Queued() == shards*queue })

	before := shardRequests()
	req, err := http.NewRequest(http.MethodGet, nearest(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctDo(t, req, ctWant{code: 503, retryAfter: "1", err: "server saturated, retry later", unavailable: 1})
	if n := shardRequests() - before; n != 0 {
		t.Errorf("the shed request sent %d sub-requests", n)
	}

	gate.Open()
	for i := 0; i < admitted; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("an admitted request answered %d", code)
		}
	}
}
