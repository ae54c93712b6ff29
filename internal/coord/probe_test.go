package coord

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/table"
)

// TestProbeAsksOnce: a probe round sends each endpoint one request,
// GET /v1/shardinfo, whose ready flag is what /readyz answers — so a
// shard that begins to drain still leaves the routable map, one request
// a round.
func TestProbeAsksOnce(t *testing.T) {
	tb := fleetTable()
	var (
		mu   sync.Mutex
		seen [2]map[string]int // shard → path → requests
		srvs []*server.Server
		urls []string
	)
	for i := range seen {
		c0 := 48 * i
		srv, err := server.New(buildSnap(t, tb.Sub(table.Rect{C0: c0, Rows: fleetRows, Cols: 48}), c0), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = map[string]int{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[i][r.URL.Path]++
			mu.Unlock()
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		srvs, urls = append(srvs, srv), append(urls, ts.URL)
	}
	c, err := New(Config{Endpoints: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// rounds runs n probe rounds and checks each endpoint saw n requests,
	// all to /v1/shardinfo.
	rounds := func(n int) {
		t.Helper()
		mu.Lock()
		for i := range seen {
			seen[i] = map[string]int{}
		}
		mu.Unlock()
		for i := 0; i < n; i++ {
			c.probeRound(false)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, got := range seen {
			if len(got) != 1 || got["/v1/shardinfo"] != n {
				t.Errorf("shard %d: %d probe rounds sent %v, want %d to /v1/shardinfo and nothing else", i, n, got, n)
			}
		}
	}
	rounds(2)
	if !c.Ready() {
		t.Fatal("a two-shard fleet whose shards answer is not ready")
	}

	srvs[1].BeginDrain()
	rounds(c.cfg.EjectAfter)
	for _, ep := range c.memberSnapshot() {
		want := StateHealthy
		if ep.url == urls[1] {
			want = StateDead
		}
		if st := ep.currentState(); st != want {
			t.Errorf("endpoint %s %v after %d rounds, want %v", ep.url, st, c.cfg.EjectAfter, want)
		}
	}
	if c.Ready() {
		t.Error("the fleet is ready with its only owner of cols 48-96 draining")
	}
}

// TestFrontTimeouts: the coordinator's http.Server has the slow-client
// timeouts a server's has, and its write timeout outlasts the longest
// request budget it grants, so no answer is cut short of its deadline.
func TestFrontTimeouts(t *testing.T) {
	f := newFleet(t, Config{}, false)
	for _, maxTimeout := range []time.Duration{0, 60 * time.Second} {
		c, err := New(Config{Endpoints: f.coord.cfg.Endpoints, ProbeInterval: time.Hour, MaxTimeout: maxTimeout})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if c.hs.ReadHeaderTimeout != server.ReadHeaderTimeout {
			t.Errorf("MaxTimeout %v: ReadHeaderTimeout %v, want %v", maxTimeout, c.hs.ReadHeaderTimeout, server.ReadHeaderTimeout)
		}
		if c.hs.WriteTimeout <= c.cfg.MaxTimeout {
			t.Errorf("MaxTimeout %v: WriteTimeout %v, not past the %v budget", maxTimeout, c.hs.WriteTimeout, c.cfg.MaxTimeout)
		}
	}
}
