// Tests of the lame-duck drain state and the base_col echo on sketch
// sub-query answers — the shard-side halves of the coordinator's
// planned-handoff protocol: BeginDrain withdraws readiness (so probers
// route away) without refusing queries, and base_col lets the
// coordinator fence answers from a stale placement.
package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
	"repro/internal/workload"
)

func TestLameDuckDrain(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	if code, _, body := wiretest.Get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("pre-drain /readyz: %d (%s)", code, body)
	}
	if s.Draining() {
		t.Fatal("Draining() true before BeginDrain")
	}

	s.BeginDrain()
	s.BeginDrain() // idempotent
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	// Readiness is withdrawn with the drain reason and a retry hint...
	code, hdr, body := wiretest.Get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining /readyz: %d, Retry-After %q (%s)", code, hdr.Get("Retry-After"), body)
	}
	var rd server.Ready
	getJSONBody(t, body, &rd)
	if rd.Status != "draining" || rd.Generation == 0 {
		t.Errorf("draining readyz body: %s", body)
	}

	// ...the shard withdraws from scatter-gather routing...
	var info server.ShardInfo
	getJSON(t, ts.URL+"/v1/shardinfo", 200, &info)
	if info.Ready {
		t.Errorf("draining shard still advertises Ready=true: %+v", info)
	}

	// ...but queries still serve: lame duck sheds new routing, not
	// in-flight or straggler work.
	var res server.NearestResult
	getJSON(t, ts.URL+"/v1/nearest?q=0,0,8,8&mode=sketch", 200, &res)
	if res.Tile < 0 {
		t.Errorf("draining nearest: %+v", res)
	}
	if code, _, _ := wiretest.Get(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("draining /healthz: %d, want 200 (liveness is not readiness)", code)
	}
}

func getJSONBody(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}

// TestSketchBaseColEcho: a shard serving a non-zero column placement
// echoes base_col on every sketch sub-query answer, giving the
// coordinator the fence that keeps a stale placement out of merges.
func TestSketchBaseColEcho(t *testing.T) {
	const baseCol = 16
	tb := workload.Random(32, 32, 25, 9)
	pool, err := core.NewPool(tb, 1, 16, 5, core.PoolOptions{
		MinLogRows: 3, MaxLogRows: 3, MinLogCols: 3, MaxLogCols: 3, BaseCol: baseCol,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	sn, err := server.BuildSnapshot(context.Background(), tb, pool, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 2, Seed: 5,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	s, err := server.New(sn, server.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc := dialSub(t, ts.URL)
	sk := sc.ask(t, server.SubSketch, &server.SubQuery{K: pool.K(), Rects: []table.Rect{{Rows: 8, Cols: 8}}}, 200)
	if sk.BaseCol != baseCol {
		t.Errorf("sketch base_col %d, want %d", sk.BaseCol, baseCol)
	}

	query := &server.SubQuery{K: pool.K(), Sketches: sk.Items[0].Sketch}
	if best := sc.ask(t, server.SubNearest, query, 200); best.BaseCol != baseCol {
		t.Errorf("sketch/nearest base_col %d, want %d", best.BaseCol, baseCol)
	}
	if asg := sc.ask(t, server.SubAssign, query, 200); asg.BaseCol != baseCol {
		t.Errorf("sketch/assign base_col %d, want %d", asg.BaseCol, baseCol)
	}
}
