// Black-box tests of the resilient query service. Overload, drain, and
// timeout scenarios are driven deterministically through
// faultinject.Gate — "N requests are in flight" is a synchronization
// fact established with AwaitArrivals, never a sleep-and-hope race.
package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
	"repro/internal/workload"
)

// Shared fixture: a 64x64 table with a pool covering dyadic extents
// 4..16 on both axes, 8x8 grid tiles (64 of them), 4 medoid clusters.
// Built once; snapshots are immutable so every test may share it.
var (
	fixOnce sync.Once
	fixTb   *table.Table
	fixSnap *server.Snapshot
	fixErr  error
)

func buildFixture() {
	fixTb = workload.Random(64, 64, 100, 7)
	pool, err := core.NewPool(fixTb, 1, 64, 42, core.PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		fixErr = err
		return
	}
	fixSnap, fixErr = server.BuildSnapshot(context.Background(), fixTb, pool, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
	})
}

func snap(t testing.TB) *server.Snapshot {
	t.Helper()
	fixOnce.Do(buildFixture)
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixSnap
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(snap(t), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	code, _, body := wiretest.Get(t, url)
	if code != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, code, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func TestDistanceTiers(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})

	a := table.Rect{R0: 0, C0: 0, Rows: 6, Cols: 7}
	b := table.Rect{R0: 32, C0: 20, Rows: 6, Cols: 7}
	ref, err := sn.ExactDistance(context.Background(), a, b, 0)
	if err != nil {
		t.Fatalf("ExactDistance: %v", err)
	}
	q := fmt.Sprintf("a=%s&b=%s", server.FormatRect(a), server.FormatRect(b))

	var exact server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?"+q+"&mode=exact", 200, &exact)
	if exact.Tier != server.TierExact || exact.Degraded || exact.Reason != "" {
		t.Errorf("exact mode: got %+v", exact)
	}
	if exact.Distance != ref {
		t.Errorf("exact distance %v != reference %v", exact.Distance, ref)
	}

	// Unloaded auto queries take the exact tier.
	var auto server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?"+q, 200, &auto)
	if auto.Tier != server.TierExact || auto.Distance != ref {
		t.Errorf("auto mode unloaded: got %+v, want exact tier at %v", auto, ref)
	}

	// The sketch tier answers inside the compound-sketch guarantee
	// (Theorem 5/6): (1-eps)D <= est <= 4(1+eps)D. With k=64 the
	// empirical eps is well under 0.5, so [D/2, 6D] is a safe envelope.
	var sk server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?"+q+"&mode=sketch", 200, &sk)
	if sk.Tier != server.TierSketch || sk.Degraded || sk.Reason != server.ReasonRequested {
		t.Errorf("sketch mode: got %+v", sk)
	}
	if sk.Distance < ref/2 || sk.Distance > 6*ref {
		t.Errorf("sketch estimate %v outside [%v, %v] (exact %v)", sk.Distance, ref/2, 6*ref, ref)
	}
	t.Logf("exact %.4g, sketch %.4g (ratio %.3f)", ref, sk.Distance, sk.Distance/ref)

	for _, bad := range []string{
		"?" + q + "&mode=wat",        // unknown mode
		"?a=0,0,6,7",                 // missing b
		"?a=0,0,6,7&b=nope",          // malformed rect
		"?a=0,0,6,7&b=0,0,7,6",       // mismatched sizes
		"?a=0,0,6,7&b=60,60,6,7",     // b outside the table
		"?" + q + "&timeout_ms=0",    // non-positive timeout
		"?" + q + "&timeout_ms=soon", // malformed timeout
	} {
		if code, _, body := wiretest.Get(t, ts.URL+"/v1/distance"+bad); code != 400 {
			t.Errorf("GET %s: status %d, want 400 (body %s)", bad, code, body)
		}
	}
}

func TestNearestAndAssign(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	q := table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8} // grid tile 9
	for _, mode := range []string{server.ModeExact, server.ModeSketch} {
		var nr server.NearestResult
		getJSON(t, ts.URL+"/v1/nearest?q="+server.FormatRect(q)+"&mode="+mode, 200, &nr)
		if nr.Tile == 9 {
			t.Errorf("mode %s: nearest returned the query tile itself", mode)
		}
		if nr.Tile < 0 || nr.Tile >= 64 || nr.Distance <= 0 {
			t.Errorf("mode %s: implausible nearest %+v", mode, nr)
		}
		if _, err := server.ParseRect(nr.Rect); err != nil {
			t.Errorf("mode %s: bad rect %q: %v", mode, nr.Rect, err)
		}

		var ar server.AssignResult
		getJSON(t, ts.URL+"/v1/assign?q="+server.FormatRect(q)+"&mode="+mode, 200, &ar)
		if ar.Cluster < 0 || ar.Cluster >= 4 || ar.Medoid < 0 || ar.Medoid >= 64 {
			t.Errorf("mode %s: implausible assignment %+v", mode, ar)
		}
	}

	// Query rectangles must match the tile size exactly.
	if code, _, _ := wiretest.Get(t, ts.URL+"/v1/nearest?q=0,0,4,4"); code != 400 {
		t.Errorf("wrong-size nearest: status %d, want 400", code)
	}

	// A snapshot built without clustering answers assign with 404.
	bare, err := server.BuildSnapshot(context.Background(), fixTb, snap(t).Pool(), server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 0,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot without clusters: %v", err)
	}
	bs, err := server.New(bare, server.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bts := httptest.NewServer(bs.Handler())
	defer bts.Close()
	if code, _, _ := wiretest.Get(t, bts.URL+"/v1/assign?q="+server.FormatRect(q)); code != 404 {
		t.Errorf("assign without clusters: status %d, want 404", code)
	}
}

// TestNoFiniteDistanceAnswers400: cells of ±1.7e308 are finite, so ingress
// accepts the table, but two cells of opposite sign differ by +Inf, so
// between any two distinct rectangles the power sums and the sketch lanes
// overflow and no candidate has a distance below +Inf. Assign must refuse
// the query as nearest does, on every tier, instead of indexing medoid −1,
// and distance must refuse it too — the request's 400, a batch item's
// error, nothing served — instead of handing +Inf or NaN to the encoder.
func TestNoFiniteDistanceAnswers400(t *testing.T) {
	tb := table.New(16, 16)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range tb.Data() {
		tb.Data()[i] = 1.7e308 * float64(1-2*rng.IntN(2))
	}
	s, err := server.New(buildSnap(t, tb, 1, 16, 4, 2, 1), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, op := range []string{"nearest", "assign"} {
		for _, mode := range []string{server.ModeExact, server.ModeSketch, server.ModeAuto, server.ModePrune} {
			// Off the grid, so the query is no tile's and no medoid's twin.
			code, _, body := wiretest.Get(t, ts.URL+"/v1/"+op+"?q=1,1,4,4&mode="+mode)
			if code != 400 || !strings.Contains(string(body), "no candidate") {
				t.Errorf("%s mode=%s: status %d body %s, want 400 \"no candidate …\"", op, mode, code, body)
			}
		}
	}
	const noDistance = `{"error":"no finite distance between a and b"}`
	for _, mode := range []string{server.ModeExact, server.ModeSketch, server.ModeAuto} {
		before := server.ReadStats()
		code, _, body := wiretest.Get(t, ts.URL+"/v1/distance?a=0,0,4,4&b=4,4,4,4&mode="+mode)
		if code != 400 || string(body) != noDistance+"\n" {
			t.Errorf("distance mode=%s: status %d body %s, want 400 %s", mode, code, body, noDistance)
		}
		// The middle item is a rectangle against itself: exactly 0 and
		// served on the exact tier, ∞ − ∞ lanes on the sketch tier.
		code, _, body = postBatch(t, ts.URL+"/v1/batch/distance", &server.BatchRequest{Mode: mode, Items: []server.BatchItem{
			{A: "0,0,4,4", B: "4,4,4,4"}, {A: "8,8,4,4", B: "8,8,4,4"}, {A: "1,1,5,6", B: "9,9,5,6"},
		}})
		if code != 200 {
			t.Fatalf("batch distance mode=%s: status %d body %s", mode, code, body)
		}
		served := 1
		if mode == server.ModeSketch {
			served = 0
		}
		br := decodeBatch(t, body)
		if br.Served != served || br.Failed != 3-served || string(br.Items[0]) != noDistance || string(br.Items[2]) != noDistance {
			t.Errorf("batch distance mode=%s: %s, want %d served and items 0 and 2 refused with %s", mode, body, served, noDistance)
		}
		if d := server.ReadStats().Served - before.Served; d != int64(served) {
			t.Errorf("distance mode=%s: served advanced %d over one GET and one batch, want %d", mode, d, served)
		}
	}
}

// TestOverloadShedsAndRetryingClientRecovers is the acceptance scenario:
// saturate MaxInflight+MaxQueue deterministically with a Gate, assert
// the next arrival sheds with 503 + Retry-After, then let the backoff
// client ride the shedding out — its injected Sleep hook opens the gate,
// the queue drains, and the retried query succeeds within its budget.
func TestOverloadShedsAndRetryingClientRecovers(t *testing.T) {
	gate := faultinject.NewGate()
	s, ts := newTestServer(t, server.Config{
		MaxInflight: 2, MaxQueue: 2, DefaultTimeout: 30 * time.Second,
		Hook: func(string) error { gate.Wait(); return nil },
	})
	before := server.ReadStats()

	u := ts.URL + "/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=sketch"
	type reply struct {
		code int
		body string
	}
	parked := make(chan reply, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Get(u)
			if err != nil {
				parked <- reply{-1, err.Error()}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			parked <- reply{resp.StatusCode, string(body)}
		}()
	}
	// Two requests hold the execution slots (parked in the gate), two
	// wait in the admission queue: the server is now provably full.
	gate.AwaitArrivals(2)
	wiretest.WaitFor(t, "admission queue to fill", func() bool { return s.Queued() == 2 })

	code, hdr, body := wiretest.Get(t, u)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated probe: status %d, want 503 (body %s)", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("shed body %q: want JSON error", body)
	}

	// The retrying client: its third backoff sleep opens the gate, the
	// parked requests drain, and a later attempt is admitted.
	var sleeps atomic.Int64
	cl, err := client.New(client.Config{
		BaseURL: ts.URL, MaxAttempts: 50, Budget: time.Hour, Seed: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if sleeps.Add(1) == 3 {
				gate.Open()
			}
			time.Sleep(time.Millisecond) // yield so the drain proceeds
			return nil
		},
	})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	res, err := cl.Distance(context.Background(), table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8},
		table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8}, server.ModeSketch)
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if res.Tier != server.TierSketch {
		t.Errorf("client answer tier %q, want sketch", res.Tier)
	}
	if sleeps.Load() < 3 {
		t.Errorf("client retried %d times, want >= 3 (it must have been shed)", sleeps.Load())
	}

	for i := 0; i < 4; i++ {
		r := <-parked
		if r.code != 200 {
			t.Errorf("parked request %d: status %d (body %s)", i, r.code, r.body)
		}
	}
	after := server.ReadStats()
	if d := after.Shed - before.Shed; d < 3 {
		t.Errorf("Shed counter advanced by %d, want >= 3 (probe + client retries)", d)
	}
	if d := after.Served - before.Served; d < 5 {
		t.Errorf("Served counter advanced by %d, want >= 5", d)
	}
}

// TestLoadDegradation: with occupancy at the DegradeAt threshold, an
// auto query answers from the sketch tier tagged reason=load.
func TestLoadDegradation(t *testing.T) {
	gate := faultinject.NewGate()
	defer gate.Open()
	s, ts := newTestServer(t, server.Config{
		MaxInflight: 3, MaxQueue: 1, DegradeAt: 0.5, DefaultTimeout: 30 * time.Second,
		Hook: func(op string) error {
			if op == "nearest" {
				gate.Wait()
			}
			return nil
		},
	})
	before := server.ReadStats()

	parked := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := wiretest.Get(t, ts.URL+"/v1/nearest?q=0,0,8,8&mode=sketch")
			parked <- code
		}()
	}
	gate.AwaitArrivals(2) // 2 of 3 slots held; with the probe itself, occupancy = 3/4

	var res server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?a=0,0,8,8&b=8,8,8,8", 200, &res)
	if res.Tier != server.TierSketch || !res.Degraded || res.Reason != server.ReasonLoad {
		t.Errorf("loaded auto query: got %+v, want degraded sketch (reason load)", res)
	}
	if d := server.ReadStats().Degraded - before.Degraded; d < 1 {
		t.Errorf("Degraded counter advanced by %d, want >= 1", d)
	}

	gate.Open()
	for i := 0; i < 2; i++ {
		if code := <-parked; code != 200 {
			t.Errorf("parked nearest: status %d", code)
		}
	}
	_ = s
}

// TestDeadlineDegradation: when the remaining deadline cannot fit the
// exact path, auto queries degrade up front (reason=deadline) while
// explicit exact queries still run exactly.
func TestDeadlineDegradation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		DefaultTimeout: time.Second, ExactBudget: time.Hour,
	})
	q := "a=0,0,8,8&b=8,8,8,8"

	var res server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?"+q, 200, &res)
	if res.Tier != server.TierSketch || !res.Degraded || res.Reason != server.ReasonDeadline {
		t.Errorf("tight-deadline auto: got %+v, want degraded sketch (reason deadline)", res)
	}

	getJSON(t, ts.URL+"/v1/distance?"+q+"&mode=exact", 200, &res)
	if res.Tier != server.TierExact || res.Degraded {
		t.Errorf("tight-deadline exact: got %+v, want exact tier", res)
	}
}

// TestExactTimeout: a request whose deadline expires inside its
// admission slot fails with 504 under mode=exact but still answers
// (degraded) under mode=auto.
func TestExactTimeout(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		Hook: func(string) error { time.Sleep(20 * time.Millisecond); return nil },
	})
	before := server.ReadStats()
	q := "a=0,0,8,8&b=8,8,8,8&timeout_ms=1"

	code, _, body := wiretest.Get(t, ts.URL+"/v1/distance?"+q+"&mode=exact")
	if code != http.StatusGatewayTimeout {
		t.Errorf("expired exact: status %d, want 504 (body %s)", code, body)
	}
	if d := server.ReadStats().TimedOut - before.TimedOut; d < 1 {
		t.Errorf("TimedOut counter advanced by %d, want >= 1", d)
	}

	var res server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?"+q, 200, &res)
	if res.Tier != server.TierSketch || res.Reason != server.ReasonDeadline {
		t.Errorf("expired auto: got %+v, want sketch (reason deadline)", res)
	}
}

// TestQueueTimeout: a request whose deadline expires while waiting in
// the admission queue answers 504, not a success against a stale slot.
func TestQueueTimeout(t *testing.T) {
	gate := faultinject.NewGate()
	defer gate.Open()
	s, ts := newTestServer(t, server.Config{
		MaxInflight: 1, MaxQueue: 2, DefaultTimeout: 30 * time.Second,
		Hook: func(string) error { gate.Wait(); return nil },
	})
	before := server.ReadStats()

	parked := make(chan int, 1)
	go func() {
		code, _, _ := wiretest.Get(t, ts.URL+"/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=sketch")
		parked <- code
	}()
	gate.AwaitArrivals(1)

	code, _, body := wiretest.Get(t, ts.URL+"/v1/distance?a=0,0,8,8&b=8,8,8,8&timeout_ms=30")
	if code != http.StatusGatewayTimeout {
		t.Errorf("queued past deadline: status %d, want 504 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "queued") {
		t.Errorf("queue-timeout body %q should mention queueing", body)
	}
	if d := server.ReadStats().TimedOut - before.TimedOut; d < 1 {
		t.Errorf("TimedOut counter advanced by %d, want >= 1", d)
	}
	if got := s.Queued(); got != 0 {
		t.Errorf("after queue timeout: Queued() = %d, want 0", got)
	}

	gate.Open()
	if code := <-parked; code != 200 {
		t.Errorf("parked request: status %d", code)
	}
}

// TestDrainByteIdentical: SIGTERM-style shutdown drains in-flight
// requests, and the drained answers are byte-identical to the same
// queries answered before shutdown began. Also asserts no goroutines
// leak once the server is down.
func TestDrainByteIdentical(t *testing.T) {
	startGoroutines := runtime.NumGoroutine()

	gate := faultinject.NewGate()
	var gateOn atomic.Bool
	s, err := server.New(snap(t), server.Config{
		DefaultTimeout: 30 * time.Second,
		Hook: func(string) error {
			if gateOn.Load() {
				gate.Wait()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	httpc := &http.Client{Transport: &http.Transport{}}
	fetch := func(path string) (int, []byte) {
		resp, err := httpc.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	paths := []string{
		"/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=exact",
		"/v1/distance?a=0,0,6,7&b=32,20,6,7&mode=sketch",
		"/v1/nearest?q=8,8,8,8",
		"/v1/assign?q=16,0,8,8",
	}
	baseline := make(map[string][]byte, len(paths))
	for _, p := range paths {
		code, body := fetch(p)
		if code != 200 {
			t.Fatalf("baseline GET %s: status %d (body %s)", p, code, body)
		}
		baseline[p] = body
	}

	// Park one request per path mid-flight, then begin the drain.
	gateOn.Store(true)
	type reply struct {
		path string
		code int
		body []byte
	}
	parked := make(chan reply, len(paths))
	for _, p := range paths {
		go func(p string) {
			code, body := fetch(p)
			parked <- reply{p, code, body}
		}(p)
	}
	gate.AwaitArrivals(len(paths))

	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shErr := make(chan error, 1)
	go func() { shErr <- s.Shutdown(shCtx) }()

	// The drain has begun once the listener refuses new connections.
	wiretest.WaitFor(t, "listener to close", func() bool {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return true
		}
		conn.Close()
		return false
	})

	gate.Open()
	for range paths {
		r := <-parked
		if r.code != 200 {
			t.Errorf("drained GET %s: status %d (body %s)", r.path, r.code, r.body)
			continue
		}
		if string(r.body) != string(baseline[r.path]) {
			t.Errorf("drained GET %s: body %q differs from pre-drain %q", r.path, r.body, baseline[r.path])
		}
	}
	if err := <-shErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}

	httpc.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > startGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > startGoroutines+2 {
		t.Errorf("goroutine leak after drain: %d running, started with %d", n, startGoroutines)
	}
}

// TestSnapshotSwap: Swap atomically replaces the serving state — the
// same query answers from the new snapshot, and the reload counters
// advance. Distances over a 2x-scaled table double exactly under p=1.
func TestSnapshotSwap(t *testing.T) {
	build := func(scale float64) *server.Snapshot {
		tb := workload.Random(32, 32, 100, 11)
		data := tb.Data()
		for i := range data {
			data[i] *= scale
		}
		pool, err := core.NewPool(tb, 1, 32, 5, core.PoolOptions{
			MinLogRows: 2, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 2,
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
		return sn
	}
	before := server.ReadStats()
	s, err := server.New(build(1), server.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u := ts.URL + "/v1/distance?a=0,0,8,8&b=16,16,8,8&mode=exact"
	var d1, d2 server.DistanceResult
	getJSON(t, u, 200, &d1)

	s.Swap(build(2))
	getJSON(t, u, 200, &d2)
	if want := 2 * d1.Distance; !closeTo(d2.Distance, want, 1e-9) {
		t.Errorf("post-swap distance %v, want %v (2x pre-swap %v)", d2.Distance, want, d1.Distance)
	}

	var h server.Health
	getJSON(t, ts.URL+"/healthz", 200, &h)
	if h.Reloads != 1 || h.Rows != 32 || h.Tiles != 16 || h.Clusters != 2 {
		t.Errorf("healthz after swap: %+v", h)
	}
	if d := server.ReadStats().Reloads - before.Reloads; d != 1 {
		t.Errorf("Reloads counter advanced by %d, want 1", d)
	}
}

func closeTo(got, want, relTol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= relTol*want
}

// TestMetricsAdvanceAndPublish: the expvar counters advance with
// traffic and are published on /debug/vars.
func TestMetricsAdvanceAndPublish(t *testing.T) {
	_, ts := newTestServer(t, server.Config{DegradeAt: 0.01})
	before := server.ReadStats()

	var res server.DistanceResult
	getJSON(t, ts.URL+"/v1/distance?a=0,0,8,8&b=8,8,8,8", 200, &res)
	// DegradeAt 0.01 means the probe's own slot saturates the server:
	// the auto query must have degraded for load.
	if !res.Degraded || res.Reason != server.ReasonLoad {
		t.Fatalf("probe under DegradeAt=0.01: got %+v, want load degradation", res)
	}
	after := server.ReadStats()
	if after.Requests-before.Requests < 1 || after.Served-before.Served < 1 || after.Degraded-before.Degraded < 1 {
		t.Errorf("counters did not advance: before %+v, after %+v", before, after)
	}

	code, _, body := wiretest.Get(t, ts.URL+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars: bad JSON: %v", err)
	}
	for _, key := range []string{
		"tabmine_requests_total", "tabmine_requests_served", "tabmine_requests_shed",
		"tabmine_requests_degraded", "tabmine_requests_timedout", "tabmine_snapshot_reloads",
		"tabmine_sketch_scan_candidates", "tabmine_sketch_scan_selections",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
}

// TestFlakyHookFails: a Hook failure (the flaky-nth-request fault)
// surfaces as 500, which the retrying client rides out.
func TestFlakyHookFails(t *testing.T) {
	trig := faultinject.FailNth(1)
	_, ts := newTestServer(t, server.Config{
		Hook: func(string) error { return trig() },
	})
	cl, err := client.New(client.Config{
		BaseURL: ts.URL, MaxAttempts: 3, Seed: 9,
		Sleep: func(context.Context, time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	res, err := cl.Distance(context.Background(), table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8},
		table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8}, server.ModeExact)
	if err != nil {
		t.Fatalf("client through flaky hook: %v", err)
	}
	if res.Tier != server.TierExact {
		t.Errorf("tier %q, want exact", res.Tier)
	}
}

// TestHealthz reports the snapshot shape.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var h server.Health
	getJSON(t, ts.URL+"/healthz", 200, &h)
	if h.Status != "ok" || h.Rows != 64 || h.Cols != 64 || h.Tiles != 64 || h.Clusters != 4 {
		t.Errorf("healthz: %+v", h)
	}
}
