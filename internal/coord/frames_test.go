// Tests of the connections the coordinator holds to its shards for
// sub-query frames: a shard restarted on its address is not a failed
// shard, a fault switch reaches a frame on a held connection, and
// closing the coordinator leaves no connection or goroutine behind.
package coord

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
	"repro/internal/workload"
)

// requireSevered checks that br, sp's tripped breaker, reaches the
// sub-queries: a frame to sp fails, and the breaker counts it.
func requireSevered(t *testing.T, f *fleet, sp *shardProc, br *faultinject.Breaker) {
	t.Helper()
	for _, ep := range f.coord.memberSnapshot() {
		if ep.url != sp.url() {
			continue
		}
		q := &server.SubQuery{K: fleetK, Rects: []table.Rect{{Rows: tileSide, Cols: tileSide}}}
		if _, err := ep.cl.Sub(context.Background(), server.SubSketch, q, time.Second); err == nil {
			t.Fatal("a sub-query to a killed shard answered")
		}
		if br.Hits() == 0 {
			t.Fatal("the breaker severed no sub-query")
		}
		return
	}
	t.Fatalf("endpoint %s not in the fleet", sp.url())
}

// servedShards serves the fixture table as two 48-column shards, each
// behind a Server of its own on a listener of its own, so a test can
// Shutdown a shard as its process would and bind its address again.
func servedShards(t *testing.T) (srvs []*server.Server, snaps []*server.Snapshot, urls []string) {
	t.Helper()
	tb := workload.Random(fleetRows, fleetCols, 100, 11)
	for c0 := 0; c0 < fleetCols; c0 += 48 {
		sn := buildSnap(t, tb.Sub(table.Rect{C0: c0, Rows: fleetRows, Cols: 48}), c0)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, serveShard(t, sn, l))
		snaps = append(snaps, sn)
		urls = append(urls, "http://"+l.Addr().String())
	}
	return srvs, snaps, urls
}

// serveShard serves sn on l until the test ends.
func serveShard(t *testing.T, sn *server.Snapshot, l net.Listener) *server.Server {
	t.Helper()
	srv, err := server.New(sn, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // http.ErrServerClosed at Shutdown
	t.Cleanup(func() { shutdown(t, srv) })
	return srv
}

func shutdown(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shard Shutdown: %v", err)
	}
}

// askNearest sends one nearest through c's handler and requires a clean,
// whole answer.
func askNearest(t *testing.T, c *Coordinator, tile int) {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/nearest?mode=sketch&q="+server.FormatRect(tileRect(tile)), nil))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"partial":true`) {
		t.Fatalf("nearest of tile %d: %d %s", tile, rec.Code, rec.Body)
	}
}

// shardFailures sums tabmine_coord_shard_failures over the endpoints.
func shardFailures() int64 {
	var n int64
	mShardFailures.Do(func(kv expvar.KeyValue) { n += kv.Value.(*expvar.Int).Value() })
	return n
}

// TestRestartedShardIsNotAFailedShard: a shard process that exits and
// comes back on its address leaves the coordinator holding a connection
// the old process closed. The next sub-query meets it, goes out again on
// a fresh dial, and answers: no failure counted, no strike, the endpoint
// still healthy.
func TestRestartedShardIsNotAFailedShard(t *testing.T) {
	srvs, snaps, urls := servedShards(t)
	c, err := New(Config{Endpoints: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One attempt a sub-query: a second could not hide a failed first.
	for _, ep := range c.memberSnapshot() {
		if ep.cl, err = client.New(client.Config{BaseURL: ep.url, MaxAttempts: 1}); err != nil {
			t.Fatal(err)
		}
	}
	askNearest(t, c, 13) // holds a connection to each shard

	shutdown(t, srvs[1]) // closes the idle held connection, as an exiting process does
	l, err := net.Listen("tcp", strings.TrimPrefix(urls[1], "http://"))
	if err != nil {
		t.Fatalf("binding the shard's address again: %v", err)
	}
	serveShard(t, snaps[1], l)

	failures, frames := shardFailures(), server.ReadStats().ShardSubqueries
	askNearest(t, c, 13)
	if d := shardFailures() - failures; d != 0 {
		t.Errorf("tabmine_coord_shard_failures advanced %d, want 0", d)
	}
	if d := server.ReadStats().ShardSubqueries - frames; d != 2 {
		t.Errorf("the shards answered %d frames, want 2", d)
	}
	for _, ep := range c.memberSnapshot() {
		if st := ep.currentState(); st != StateHealthy {
			t.Errorf("endpoint %s %v after the restart, want healthy", ep.url, st)
		}
	}
}

// TestCloseReleasesHeldConnections: closing the coordinator closes every
// connection it holds, so the shards' frame goroutines exit and nothing
// keeps a shard's snapshot reachable; with the shards shut down too no
// goroutine is left.
func TestCloseReleasesHeldConnections(t *testing.T) {
	start := runtime.NumGoroutine()
	srvs, _, urls := servedShards(t)
	c, err := New(Config{Endpoints: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 12; tile++ {
		askNearest(t, c, tile)
	}
	if n := server.ReadStats().SubConns; n == 0 {
		t.Fatal("no frame connection held after twelve fan-outs")
	}
	c.Close()
	wiretest.WaitFor(t, "the shards' frame connections to close", func() bool { return server.ReadStats().SubConns == 0 })
	for _, srv := range srvs {
		shutdown(t, srv)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // the probes'
	wiretest.WaitFor(t, "the goroutines to exit", func() bool { return runtime.NumGoroutine() <= start+2 })
}
