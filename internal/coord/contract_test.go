// The wire contract of the six query routes on every topology: wiretest's
// table, which a server's test runs on a bare server, here on
// coordinators over a fleet of one range, of two, and of two with range
// 0 replicated. A one-range fleet's every 200 body is a whole-table
// server's byte for byte; where the answers part — the cross_shard tag,
// a rectangle across a range boundary, a lost range, mode=prune and
// partial — the row names each. Beside it, the state /readyz names.
//
// "[wire 4]" is the coordinator's row that failed at the commit before
// the batch item bound it shares with the servers it fronts; the
// server's tags are listed in internal/server's contract_test.go.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
)

// extremeTable is the fleets' table of ±1.7e308 cells: finite, with no
// finite distance between two of its rectangles.
func extremeTable() *table.Table {
	tb := fleetTable()
	for i, v := range tb.Data() {
		tb.Data()[i] = math.Copysign(1.7e308, float64(int(v)%2)-0.5)
	}
	return tb
}

// silentCoordinator fronts one endpoint that never reports: no map.
func silentCoordinator(t *testing.T) *httptest.Server {
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "not a shard", http.StatusServiceUnavailable)
	}))
	t.Cleanup(silent.Close)
	c, err := New(Config{Endpoints: []string{silent.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fleetTarget is a coordinator over the fleets' table in ranges of
// shardCols columns, range 0 replicated when replicate0.
func fleetTarget(name string, shardCols int, replicate0 bool) wiretest.Target {
	return wiretest.Target{
		Name: name, Coordinator: true, Ranges: fleetCols / shardCols,
		Start: func(t *testing.T, s wiretest.Setup, hook func(op string) error) *wiretest.Front {
			if s.Booting {
				return &wiretest.Front{URL: silentCoordinator(t).URL, Calls: func() []string { return nil }}
			}
			tb, clusters := fleetTable(), 3
			if s.Extreme {
				tb = extremeTable()
			}
			if s.NoClusters || s.Extreme {
				clusters = 0
			}
			// No straggler hedge: a sub-request is the plan's, not the clock's.
			f := newFleetOf(t, tb, clusters, Config{HedgeDelay: time.Minute}, replicate0, func(int) server.Config {
				return server.Config{MaxInflight: s.Slots, MaxQueue: s.Queue, Hook: hook}
			}, shardCols)
			if s.LoseLast {
				last := f.shards[len(f.shards)-1]
				if _, err := f.coord.Deregister(context.Background(), last.url(), false); err != nil {
					t.Fatal(err)
				}
			}
			base := server.ReadStats().ShardSubqueries
			fr := &wiretest.Front{
				URL:    f.ts.URL,
				Calls:  func() []string { return make([]string, server.ReadStats().ShardSubqueries-base) },
				Queued: f.coord.pipe.Queued,
				Slots:  len(f.shards) * s.Slots, Queue: len(f.shards) * s.Queue,
			}
			if shardCols == fleetCols && !s.Extreme && !s.NoClusters && !s.LoseLast {
				fr.Ref = f.ref.URL
			}
			return fr
		},
		Stats: func() wiretest.Stats {
			s := ReadStats()
			return wiretest.Stats{Requests: s.Requests, Served: s.Served, Unavailable: s.Unavailable, TimedOut: s.TimedOut}
		},
		Shape: func(op string) any {
			switch op {
			case "distance":
				return &server.DistanceResult{}
			case "nearest":
				return &NearestResult{}
			}
			return &AssignResult{}
		},
	}
}

func TestWireContract(t *testing.T) {
	wiretest.Suite{Routes: wiretest.Routes, Targets: []wiretest.Target{
		fleetTarget("one range", fleetCols, false),
		fleetTarget("two ranges", fleetCols/2, false),
		fleetTarget("two ranges, range 0 replicated", fleetCols/2, true),
	}}.Run(t)

	// /readyz refuses with the state it is in: booting while no shard has
	// reported, degraded once a map exists that cannot route every column.
	// A fleet that lost its last range keeps the table's width, which
	// /healthz reports; one whose last range came back narrower is a
	// narrower table.
	lost := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	lost.shards[1].down.Store(true)
	waitState(t, lost, 1, StateDead)
	gap := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	if _, err := gap.coord.Deregister(context.Background(), gap.shards[0].url(), false); err != nil {
		t.Fatal(err)
	}
	tail := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	if _, err := tail.coord.Deregister(context.Background(), tail.shards[1].url(), false); err != nil {
		t.Fatal(err)
	}
	narrow := newFleetCols(t, fleetTable(), Config{ProbeInterval: time.Hour}, false, noShardConfig, fleetCols/2)
	srv, err := server.New(buildSnap(t, fleetTable().Sub(table.Rect{C0: 48, Rows: fleetRows, Cols: 32}), 48), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	narrow.shards[1].h.Store(srv.Handler())
	narrow.coord.probeRound(false)
	for _, r := range []struct {
		name, base, status string
		code, cols         int
	}{
		{"booting", silentCoordinator(t).URL, "booting", 503, 0},
		{"degraded: a range with no live endpoint", lost.ts.URL, "degraded", 503, fleetCols},
		{"degraded: a gap after a deregister", gap.ts.URL, "degraded", 503, fleetCols},
		{"degraded: a lost last range", tail.ts.URL, "degraded", 503, fleetCols},
		{"ready: a last range served narrower", narrow.ts.URL, "ready", 200, 80},
	} {
		t.Run("readyz/"+r.name, func(t *testing.T) {
			code, hdr, body := wiretest.Get(t, r.base+"/readyz")
			var got server.Ready
			retry := ""
			if r.code == 503 {
				retry = "1"
			}
			if json.Unmarshal(body, &got) != nil || code != r.code || hdr.Get("Retry-After") != retry || got.Status != r.status {
				t.Errorf("%d Retry-After %q %s, want %d Retry-After %q status %q", code, hdr.Get("Retry-After"), body, r.code, retry, r.status)
			}
			if r.cols == 0 {
				return
			}
			var h server.Health
			if code, _, body := wiretest.Get(t, r.base+"/healthz"); json.Unmarshal(body, &h) != nil || code != 200 || h.Cols != r.cols ||
				(h.Status == "ok") != (r.code == 200) {
				t.Errorf("/healthz %d %s, want a fleet of %d columns, degraded unless ready", code, body, r.cols)
			}
		})
	}

	// A fleet of one range answers every route on the exact tier and the
	// auto tier's prune block too with the bytes its one shard answers;
	// so does a co-resident exact distance on a fleet of two, whose
	// operands lie in the first range, whose coordinates are the table's.
	one := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols)
	two := newFleetCols(t, fleetTable(), Config{}, false, noShardConfig, fleetCols/2)
	same := func(t *testing.T, rt wiretest.Route, f *fleet, mode string) []byte {
		v := wiretest.Variant{Mode: mode}
		got, shard := rt.Ask(t, f.ts.URL, v), rt.Ask(t, f.shards[0].url(), v)
		if got.Code != http.StatusOK || !bytes.Equal(got.Body, shard.Body) {
			t.Errorf("coordinator %d %s\nshard       %d %s", got.Code, got.Body, shard.Code, shard.Body)
		}
		return got.Body
	}
	for _, rt := range wiretest.Routes {
		for _, mode := range []string{server.ModeExact, server.ModeAuto} {
			t.Run("one range/"+rt.Name+"/"+mode, func(t *testing.T) {
				if got := same(t, rt, one, mode); mode == server.ModeAuto && rt.Op != "distance" && !bytes.Contains(got, []byte(`"prune":{`)) {
					t.Errorf("auto %s without its prune block: %s", rt.Op, got)
				}
			})
		}
		if rt.Op == "distance" {
			t.Run("co-resident exact/"+rt.Name, func(t *testing.T) { same(t, rt, two, server.ModeExact) })
		}
	}
}

// TestShardTroubleIs503: whatever keeps the shards from answering — a
// sub-query held past the request's deadline, a shard that fails every
// sub-query — the coordinator's answer on every route is 503 +
// Retry-After (an item error in a batch), never a 4xx that would tell
// the client its query is wrong.
func TestShardTroubleIs503(t *testing.T) {
	check := func(t *testing.T, rt wiretest.Route, base string, v wiretest.Variant, errText string) {
		t.Helper()
		before := ReadStats()
		a := rt.Ask(t, base, v)
		var eb struct {
			Error string `json:"error"`
		}
		if rt.Kind == wiretest.Batch {
			var br server.BatchResponse
			if err := json.Unmarshal(a.Body, &br); err != nil || a.Code != 200 || br.Failed != wiretest.Items {
				t.Fatalf("status %d body %s: want %d failed items", a.Code, a.Body, wiretest.Items)
			}
			for i, it := range br.Items {
				if json.Unmarshal(it, &eb) != nil || !strings.Contains(eb.Error, errText) {
					t.Errorf("item %d: %s, want an error %q", i, it, errText)
				}
			}
			return
		}
		if json.Unmarshal(a.Body, &eb) != nil || a.Code != 503 || a.RetryAfter != "1" || !strings.Contains(eb.Error, errText) {
			t.Errorf("%d Retry-After %q %s, want 503 Retry-After \"1\" error %q", a.Code, a.RetryAfter, a.Body, errText)
		}
		if n := ReadStats().Unavailable - before.Unavailable; n != 1 {
			t.Errorf("coord_requests_unavailable advanced %d, want 1", n)
		}
	}
	t.Run("held past the deadline", func(t *testing.T) {
		f := newFleet(t, Config{}, false)
		gate := faultinject.NewGate()
		defer gate.Open()
		for _, sp := range f.shards {
			sp.gate.Store(gate)
		}
		// The scans wait on the sketch frames (the gate's ops); a co-resident
		// distance goes to its owner whole and is not held.
		for _, rt := range wiretest.Routes {
			if rt.Op != "distance" {
				t.Run(rt.Name, func(t *testing.T) {
					check(t, rt, f.ts.URL, wiretest.Variant{Timeout: "40"}, "query owner shard (cols 0-32) unreachable: context deadline exceeded")
				})
			}
		}
	})

	t.Run("every sub-query fails", func(t *testing.T) {
		f := newFleetSrv(t, Config{EjectAfter: 1 << 20}, false, func(int) server.Config {
			return server.Config{Hook: func(string) error { return errors.New("injected fault") }}
		})
		for _, rt := range wiretest.Routes {
			// The text carries the retrying client's jittered waits.
			t.Run(rt.Name, func(t *testing.T) { check(t, rt, f.ts.URL, wiretest.Variant{Partial: "deny"}, "unreachable") })
		}
	})
}
