// Tests of the scatter-gather coordinator over a real in-process shard
// fleet: a 32x96 table served as three 32-column shards plus one
// unsharded reference server, all sharing (p, k, seed) so
// the merge theorem applies and healthy-fleet answers must match the
// single-process sketch tier: identical tiles, rects, tie-breaks, and
// tags, with distances equal up to float accumulation order — each
// shard runs its own FFT build, so the same mathematical dot product
// lands within ~1e-12 relative of the reference, never beyond.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lpnorm"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
	"repro/internal/workload"
)

const (
	fleetRows = 32
	fleetCols = 96
	shardCols = 32
	tileSide  = 8
	fleetK    = 32
	fleetSeed = 5
)

var fleetPoolOpts = core.PoolOptions{
	MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
}

func buildSnap(t testing.TB, tb *table.Table, baseCol int) *server.Snapshot {
	return buildSnapOf(t, tb, baseCol, 3)
}

// buildSnapOf is buildSnap with its number of clusters, 0 for none.
func buildSnapOf(t testing.TB, tb *table.Table, baseCol, clusters int) *server.Snapshot {
	t.Helper()
	opts := fleetPoolOpts
	opts.BaseCol = baseCol
	pool, err := core.NewPool(tb, 1, fleetK, fleetSeed, opts)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	sn, err := server.BuildSnapshot(context.Background(), tb, pool, server.SnapshotConfig{
		TileRows: tileSide, TileCols: tileSide, Clusters: clusters, Seed: fleetSeed,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	return sn
}

// shardProc is one shard server plus fault switches: down answers every
// request (probes included) with an injected failure, which is how a
// crashed-but-port-bound or overloaded process looks to the
// coordinator's health machinery; kill severs connections mid-flight
// (the SIGKILL model); gate holds sketch sub-queries open for drain
// tests; h is swappable, modeling an address reused by a process with a
// different column placement. The switches act twice: in HTTP middleware
// (probes, ingest, frame upgrades) and in Config.Hook,
// which runs once per query the server admits — every sub-query frame
// included, which reaches no middleware once its connection is held.
type shardProc struct {
	ts   *httptest.Server
	snap *server.Snapshot
	h    atomic.Value // http.Handler served behind the fault switches
	down atomic.Bool
	kill atomic.Pointer[faultinject.Breaker]
	gate atomic.Pointer[faultinject.Gate]
}

func (sp *shardProc) url() string { return sp.ts.URL }

// fault runs the switches for one admitted query of op. A killed query
// panics as net/http's handlers do to sever a connection: an HTTP one, or
// the held frame connection the query came on.
func (sp *shardProc) fault(op string) error {
	if sp.down.Load() {
		return errors.New("injected shard failure")
	}
	if b := sp.kill.Load(); b != nil && b.Tripped() {
		b.Hit()
		panic(http.ErrAbortHandler)
	}
	if g := sp.gate.Load(); g != nil && strings.HasPrefix(op, "sketch") {
		g.Wait()
	}
	return nil
}

type fleet struct {
	tb     *table.Table
	refSn  *server.Snapshot
	ref    *httptest.Server
	shards []*shardProc
	coord  *Coordinator
	ts     *httptest.Server
}

// spawnShard serves sn behind the fault switches and appends the proc to
// f.shards (it does NOT register the endpoint with the coordinator —
// membership tests do that themselves). scfg configures the underlying
// server; tests inject Ingestors and hooks of their own this way.
func (f *fleet) spawnShard(t testing.TB, sn *server.Snapshot, scfg server.Config) *shardProc {
	t.Helper()
	sp := &shardProc{snap: sn}
	hook := scfg.Hook
	scfg.Hook = func(op string) error {
		if err := sp.fault(op); err != nil || hook == nil {
			return err
		}
		return hook(op)
	}
	srv, err := server.New(sn, scfg)
	if err != nil {
		t.Fatalf("shard New: %v", err)
	}
	sp.h.Store(srv.Handler())
	sp.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sp.down.Load() {
			http.Error(w, "injected shard failure", http.StatusServiceUnavailable)
			return
		}
		if b := sp.kill.Load(); b != nil && b.Tripped() {
			// A probe round in flight when an endpoint is deregistered
			// may still touch it; probes carry no answers, so only
			// query/ingest paths count as observed hits on the breaker.
			if r.URL.Path != "/readyz" && r.URL.Path != "/v1/shardinfo" {
				b.Hit()
			}
			panic(http.ErrAbortHandler) // severed connection, not a clean error
		}
		sp.h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(sp.ts.Close)
	f.shards = append(f.shards, sp)
	return sp
}

// newFleet builds the three-shard fixture plus the unsharded reference
// and a coordinator over the shards. replicate0 adds a second endpoint
// serving shard 0's snapshot, forming a replica group.
func newFleet(t *testing.T, cfg Config, replicate0 bool) *fleet {
	return newFleetSrv(t, cfg, replicate0, func(int) server.Config { return server.Config{} })
}

// newFleetSrv is newFleet with per-shard server configuration: scfg(i)
// configures the i-th spawned shard (the replica included).
func newFleetSrv(t *testing.T, cfg Config, replicate0 bool, scfg func(i int) server.Config) *fleet {
	return newFleetCols(t, fleetTable(), cfg, replicate0, scfg, shardCols)
}

// fleetTable is the fixture's fleetRows × fleetCols table.
func fleetTable() *table.Table { return workload.Random(fleetRows, fleetCols, 100, 11) }

// newFleetCols is newFleetSrv over tb, in shards of shardCols columns
// each: 32 is the three-shard fixture, 48 the same table on two shards.
func newFleetCols(t testing.TB, tb *table.Table, cfg Config, replicate0 bool, scfg func(i int) server.Config, shardCols int) *fleet {
	return newFleetOf(t, tb, 3, cfg, replicate0, scfg, shardCols)
}

// newFleetOf is newFleetCols with its snapshots' number of clusters.
func newFleetOf(t testing.TB, tb *table.Table, clusters int, cfg Config, replicate0 bool, scfg func(i int) server.Config, shardCols int) *fleet {
	t.Helper()
	f := &fleet{tb: tb}

	f.refSn = buildSnapOf(t, f.tb, 0, clusters)
	refSrv, err := server.New(f.refSn, server.Config{})
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	f.ref = httptest.NewServer(refSrv.Handler())
	t.Cleanup(f.ref.Close)

	var urls []string
	for i := 0; i < fleetCols/shardCols; i++ {
		sub := f.tb.Sub(table.Rect{R0: 0, C0: i * shardCols, Rows: fleetRows, Cols: shardCols})
		sn := buildSnapOf(t, sub, i*shardCols, clusters)
		urls = append(urls, f.spawnShard(t, sn, scfg(len(f.shards))).url())
		if i == 0 && replicate0 {
			urls = append(urls, f.spawnShard(t, sn, scfg(len(f.shards))).url())
		}
	}

	cfg.Endpoints = urls
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 20 * time.Millisecond
	}
	f.coord, err = New(cfg)
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	t.Cleanup(f.coord.Close)
	f.ts = httptest.NewServer(f.coord.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func tileRect(idx int) table.Rect {
	gridCols := fleetCols / tileSide
	return table.Rect{
		R0: (idx / gridCols) * tileSide, C0: (idx % gridCols) * tileSide,
		Rows: tileSide, Cols: tileSide,
	}
}

func TestFleetReady(t *testing.T) {
	f := newFleet(t, Config{}, false)
	if !f.coord.Ready() {
		t.Fatal("coordinator not ready over a healthy fleet")
	}
	code, _, body := wiretest.Get(t, f.ts.URL+"/readyz")
	if code != 200 {
		t.Fatalf("/readyz: %d (%s)", code, body)
	}
	var h server.Health
	code, _, body = wiretest.Get(t, f.ts.URL+"/healthz")
	if code != 200 || json.Unmarshal(body, &h) != nil {
		t.Fatalf("/healthz: %d (%s)", code, body)
	}
	if h.Status != "ok" || h.Rows != fleetRows || h.Cols != fleetCols ||
		h.Tiles != 48 || h.TileRows != tileSide || h.TileCols != tileSide {
		t.Errorf("global geometry: %+v", h)
	}
}

// closeEnough is the cross-topology contract on a distance (merge.go,
// TestCrossTopologySketchAnswers): within 1e-6 relative. It tolerates the
// per-shard FFT builds' accumulation-order noise where a stored lane
// does not absorb it, and nothing else: a wrong merge is off by whole
// candidates.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	return diff <= 1e-6*scale
}

// TestHealthyFleetIdentity is the merge-theorem check over the wire: a
// healthy fleet's sketch-tier answers must match the unsharded
// reference server — identical tiles, rects, and tags, distances equal
// up to float accumulation order — for co-resident AND cross-shard
// tile pairs, and nearest for every tile in the grid.
func TestHealthyFleetIdentity(t *testing.T) {
	f := newFleet(t, Config{}, false)

	compareDistance := func(path string, exactBytes bool) {
		t.Helper()
		wc, _, want := wiretest.Get(t, f.ref.URL+path)
		gc, _, got := wiretest.Get(t, f.ts.URL+path)
		if wc != 200 || gc != 200 {
			t.Fatalf("%s: ref %d coord %d (%s / %s)", path, wc, gc, want, got)
		}
		if exactBytes {
			// The owner answers a co-resident pair whole and the coordinator
			// relays its bytes, and the exact tier sums the same cells in
			// the same local order: full byte identity holds.
			if !bytes.Equal(want, got) {
				t.Errorf("%s:\n  ref   %s\n  coord %s", path, want, got)
			}
			return
		}
		var w, g server.DistanceResult
		if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
			t.Fatalf("%s: bad JSON (%s / %s)", path, want, got)
		}
		if w.Tier != g.Tier || w.Reason != g.Reason || w.Degraded != g.Degraded ||
			!closeEnough(w.Distance, g.Distance) {
			t.Errorf("%s:\n  ref   %s\n  coord %s", path, want, got)
		}
	}

	// Distance over tile pairs that exercise same-shard and cross-shard
	// routing (tiles 0..11 span all three shards on the first grid row).
	pairs := [][2]int{{0, 1}, {0, 5}, {4, 9}, {8, 11}, {1, 46}, {13, 26}}
	for _, p := range pairs {
		a, b := tileRect(p[0]), tileRect(p[1])
		compareDistance(fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=sketch",
			server.FormatRect(a), server.FormatRect(b)), false)
	}
	// Co-resident pairs are answered whole by their owner, so even
	// mode=exact matches.
	compareDistance(fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=exact",
		server.FormatRect(tileRect(0)), server.FormatRect(tileRect(13))), true)

	for idx := 0; idx < 48; idx++ {
		path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(idx)))
		wc, _, want := wiretest.Get(t, f.ref.URL+path)
		gc, _, got := wiretest.Get(t, f.ts.URL+path)
		if wc != 200 || gc != 200 {
			t.Fatalf("%s: ref %d coord %d (%s / %s)", path, wc, gc, want, got)
		}
		var w, g server.NearestResult
		if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
			t.Fatalf("%s: bad JSON (%s / %s)", path, want, got)
		}
		if w.Tile != g.Tile || w.Rect != g.Rect || w.Tier != g.Tier ||
			w.Reason != g.Reason || w.Degraded != g.Degraded ||
			!closeEnough(w.Distance, g.Distance) {
			t.Errorf("%s:\n  ref   %s\n  coord %s", path, want, got)
		}
	}
}

// TestAssignMerge: clusterings are shard-local, so assign merges to the
// globally nearest medoid across the per-shard clusterings and reports
// the owning shard — checked against a direct scan of the shard
// snapshots.
func TestAssignMerge(t *testing.T) {
	f := newFleet(t, Config{}, false)
	q := tileRect(17) // second grid row, shard 1
	// The coordinator sketches q on its OWNER shard, so the direct scan
	// must use the same sketch bits (the reference pool's sketch of the
	// same cells differs in the last ulps — see the package comment).
	local := table.Rect{R0: q.R0, C0: q.C0 - shardCols, Rows: q.Rows, Cols: q.Cols}
	qsk, err := f.shards[1].snap.Pool().Sketch(local, nil)
	if err != nil {
		t.Fatalf("Sketch: %v", err)
	}
	bestShard, bestCluster, bestD := -1, -1, 0.0
	for i, sp := range f.shards {
		c, _, d, err := sp.snap.SketchAssignVec(context.Background(), qsk)
		if err != nil {
			t.Fatalf("shard %d SketchAssignVec: %v", i, err)
		}
		if bestShard < 0 || d < bestD {
			bestShard, bestCluster, bestD = i, c, d
		}
	}

	var res AssignResult
	code, _, body := wiretest.Get(t, f.ts.URL+fmt.Sprintf("/v1/assign?q=%s&mode=sketch", server.FormatRect(q)))
	if code != 200 || json.Unmarshal(body, &res) != nil {
		t.Fatalf("/v1/assign: %d (%s)", code, body)
	}
	if res.Shard != bestShard || res.Cluster != bestCluster || res.Distance != bestD {
		t.Errorf("assign merge (shard %d, cluster %d, %v) != direct scan (shard %d, cluster %d, %v)",
			res.Shard, res.Cluster, res.Distance, bestShard, bestCluster, bestD)
	}
	if res.Partial {
		t.Errorf("healthy fleet answered partial: %s", body)
	}
}

// TestSpanningDistanceRefused: a distance operand that crosses a shard
// boundary is a 400 on every tier, single and batch, refused before any
// shard is asked. No merge of per-shard sketches answers it: the pool's
// matrices depend on (size, set), never on position, so the two 8 × 8
// chunks of an 8 × 16 operand read one matrix, and their lane-wise sum
// sketches the chunks laid on top of each other. The table makes that
// sum cancel — a and b differ on their right chunk by minus what they
// differ by on their left — while the exact distance is large.
func TestSpanningDistanceRefused(t *testing.T) {
	a := table.Rect{R0: 0, C0: 24, Rows: 8, Cols: 16} // spans shards 0|1
	b := table.Rect{R0: 8, C0: 24, Rows: 8, Cols: 16}
	tb := fleetTable()
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			tb.Set(r, 32+c, tb.At(8+r, 24+c))
			tb.Set(8+r, 32+c, tb.At(r, 24+c))
		}
	}
	if exact := lpnorm.MustP(1).Dist(tb.Linearize(a, nil), tb.Linearize(b, nil)); exact < 1000 {
		t.Fatalf("exact L1 distance %v; the fixture should make it large", exact)
	}
	f := newFleetCols(t, tb, Config{}, false, noShardConfig, shardCols)
	items := []server.BatchItem{
		{A: server.FormatRect(a), B: server.FormatRect(b)},
		{A: rectAt(16, 0, 8, 16), B: rectAt(0, 56, 8, 16)}, // only b spans (shards 1|2)
	}
	const refusal = "spans a shard boundary"
	before := shardRequests()
	for _, mode := range []string{server.ModeSketch, server.ModeAuto, server.ModeExact} {
		for _, it := range items {
			path := fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=%s", it.A, it.B, mode)
			if code, _, body := wiretest.Get(t, f.ts.URL+path); code != http.StatusBadRequest || !bytes.Contains(body, []byte(refusal)) {
				t.Errorf("%s: %d (%s), want 400 %q", path, code, body, refusal)
			}
		}
		br := postBatch(t, f.ts.URL, "distance", url.Values{"mode": {mode}}, items)
		for i, raw := range br.Items {
			if !bytes.Contains(raw, []byte(`{"error":`)) || !bytes.Contains(raw, []byte(refusal)) {
				t.Errorf("mode=%s batch item %d: %s, want an error %q", mode, i, raw, refusal)
			}
		}
	}
	if sent := shardRequests() - before; sent != 0 {
		t.Errorf("spanning operands sent %d sub-requests, want 0", sent)
	}
}

func TestCrossShardExactRejected(t *testing.T) {
	f := newFleet(t, Config{}, false)
	checks := []string{
		fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=exact",
			server.FormatRect(tileRect(0)), server.FormatRect(tileRect(5))),
		fmt.Sprintf("/v1/nearest?q=%s&mode=exact", server.FormatRect(tileRect(0))),
		fmt.Sprintf("/v1/nearest?q=%s&mode=prune", server.FormatRect(tileRect(0))),
		fmt.Sprintf("/v1/nearest?q=%s&partial=sometimes", server.FormatRect(tileRect(0))),
		"/v1/distance?a=0,0,8,16&b=0,80,8,16&mode=exact", // spans shards
	}
	for _, path := range checks {
		code, _, body := wiretest.Get(t, f.ts.URL+path)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", path, code, body)
		}
	}
}

// TestStateMachine drives the health transitions directly: ejection
// after EjectAfter consecutive failures, re-admission through probation
// after ReadmitAfter probe successes twice over, and probation's
// one-strike rule.
func TestStateMachine(t *testing.T) {
	cfg := Config{EjectAfter: 3, ReadmitAfter: 2}
	cfg.setDefaults()
	var trans []string
	cfg.OnStateChange = func(_ string, from, to State) {
		trans = append(trans, fmt.Sprintf("%v->%v", from, to))
	}
	c := bareCoordinator(cfg)
	cl, err := client.New(client.Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ep := &endpoint{url: "test", state: StateHealthy, cl: cl}

	c.noteFailure(ep, false)
	c.noteFailure(ep, false)
	c.noteProbeOK(ep, false) // success resets the failure streak
	c.noteFailure(ep, false)
	c.noteFailure(ep, false)
	if ep.currentState() != StateHealthy {
		t.Fatalf("ejected before EjectAfter consecutive failures: %v", ep.currentState())
	}
	c.noteFailure(ep, false)
	if ep.currentState() != StateDead {
		t.Fatalf("not ejected after %d consecutive failures: %v", cfg.EjectAfter, ep.currentState())
	}

	c.noteProbeOK(ep, false)
	c.noteFailure(ep, false) // failure resets the ok streak
	c.noteProbeOK(ep, false)
	if ep.currentState() != StateDead {
		t.Fatalf("readmitted too early: %v", ep.currentState())
	}
	c.noteProbeOK(ep, false)
	if ep.currentState() != StateProbation {
		t.Fatalf("not in probation after %d probe successes: %v", cfg.ReadmitAfter, ep.currentState())
	}
	c.noteFailure(ep, false) // probation: one strike
	if ep.currentState() != StateDead {
		t.Fatalf("probation survived a failure: %v", ep.currentState())
	}
	c.noteProbeOK(ep, false)
	c.noteProbeOK(ep, false)
	c.noteProbeOK(ep, false)
	c.noteProbeOK(ep, false)
	if ep.currentState() != StateHealthy {
		t.Fatalf("not healthy after probation cleared: %v", ep.currentState())
	}
	want := []string{"healthy->dead", "dead->probation", "probation->dead", "dead->probation", "probation->healthy"}
	if fmt.Sprint(trans) != fmt.Sprint(want) {
		t.Errorf("transitions %v, want %v", trans, want)
	}
}

// fleetInfo is one healthy shard's self-description at (base, cols) of a
// 32-row fleet with 8 × 8 tiles, p = 1, k = 32 and seed 5, changed by
// edit when it is non-nil.
func fleetInfo(base, cols int, edit func(*server.ShardInfo)) *server.ShardInfo {
	in := &server.ShardInfo{
		Ready: true, BaseCol: base, Rows: 32, Cols: cols,
		TileRows: 8, TileCols: 8, Clusters: 3,
		P: 1, K: 32, Seed: 5,
		SubProtocol: server.SubFrameVersion,
	}
	if edit != nil {
		edit(in)
	}
	return in
}

// fleetEndpoint is an endpoint that has answered with fleetInfo.
func fleetEndpoint(base, cols int, edit func(*server.ShardInfo)) *endpoint {
	ep := &endpoint{url: fmt.Sprintf("http://shard-%d", base)}
	ep.setInfo(fleetInfo(base, cols, edit))
	return ep
}

// TestRefreshMapValidation: a fleet whose shards disagree on sketch
// parameters, report tile-misaligned placement or speak another
// sub-query protocol must never produce a merging map. p alone picks
// the estimator, so (p, k, seed) is the whole sketch side of the test.
func TestRefreshMapValidation(t *testing.T) {
	mk := func(base, cols int) *endpoint { return fleetEndpoint(base, cols, nil) }
	mkProto := func(base, cols, proto int) *endpoint {
		return fleetEndpoint(base, cols, func(in *server.ShardInfo) { in.SubProtocol = proto })
	}
	cfg := Config{}
	cfg.setDefaults()

	for _, mismatch := range []struct {
		name string
		edit func(*server.ShardInfo)
	}{
		{"seed", func(in *server.ShardInfo) { in.Seed = 7 }},
		{"p", func(in *server.ShardInfo) { in.P = 0.5 }},
		{"k", func(in *server.ShardInfo) { in.K = 64 }},
	} {
		c := bareCoordinator(cfg)
		c.endpoints = []*endpoint{mk(0, 32), fleetEndpoint(32, 32, mismatch.edit)}
		c.refreshMap()
		if c.currentMap() != nil {
			t.Errorf("%s-mismatched fleet produced a map", mismatch.name)
		}
	}

	c := bareCoordinator(cfg)
	c.endpoints = []*endpoint{mk(0, 32), mk(20, 32)} // 20 not tile-aligned
	c.refreshMap()
	if c.currentMap() != nil {
		t.Error("tile-misaligned fleet produced a map")
	}

	// A shard of the one-item JSON protocol (it reports no version at all)
	// or of a later frame never enters the map: the refusal is logged once
	// per refresh, and the map that served before it appeared stays.
	for _, proto := range []int{0, server.SubFrameVersion + 1} {
		var logged []string
		c = bareCoordinator(cfg)
		c.cfg.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		c.endpoints = []*endpoint{mk(0, 32), mkProto(32, 32, proto)}
		c.refreshMap()
		if c.currentMap() != nil {
			t.Errorf("a shard speaking sub-query protocol %d produced a map", proto)
		}
		want := fmt.Sprintf("coord: shard http://shard-32 is not merge-compatible: it speaks sub-query protocol %d, this coordinator %d; keeping previous map",
			proto, server.SubFrameVersion)
		if len(logged) != 1 || logged[0] != want {
			t.Errorf("protocol %d: logged %q, want one line %q", proto, logged, want)
		}
		c.endpoints = c.endpoints[:1]
		c.refreshMap()
		before := c.currentMap()
		c.endpoints = append(c.endpoints, mkProto(32, 32, proto))
		c.refreshMap()
		if got := c.currentMap(); got == nil || got != before {
			t.Errorf("protocol %d: the previous map was not kept (%p -> %p)", proto, before, got)
		}
	}

	c = bareCoordinator(cfg)
	c.endpoints = []*endpoint{mk(0, 32), mk(64, 32)} // gap at 32..64
	c.refreshMap()
	m := c.currentMap()
	if m == nil || m.complete {
		t.Errorf("gapped fleet: map %+v, want incomplete", m)
	}

	c = bareCoordinator(cfg)
	c.endpoints = []*endpoint{mk(0, 32), mk(32, 32), mk(32, 32)}
	c.refreshMap()
	m = c.currentMap()
	if m == nil || !m.complete || len(m.ranges) != 2 || len(m.ranges[1].endpoints) != 2 {
		t.Fatalf("replicated fleet map: %+v", m)
	}
}

// TestRefreshMapFollowsFleetWideChange: every shard restarting behind
// the same URLs with another p or tile width keeps the ranges as they
// were, yet the map must change with them — an old map would merge
// distances under the old B(p) and name tiles on the old grid.
func TestRefreshMapFollowsFleetWideChange(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	for _, change := range []struct {
		name  string
		edit  func(*server.ShardInfo)
		holds func(*shardMap) bool
	}{
		{"p", func(in *server.ShardInfo) { in.P = 0.5 }, func(m *shardMap) bool { return m.p == 0.5 }},
		{"tileCols", func(in *server.ShardInfo) { in.TileCols = 16 }, func(m *shardMap) bool { return m.tileCols == 16 }},
	} {
		c := bareCoordinator(cfg)
		c.endpoints = []*endpoint{fleetEndpoint(0, 32, nil), fleetEndpoint(32, 32, nil)}
		c.refreshMap()
		before := c.currentMap()
		if before == nil || !before.complete {
			t.Fatalf("%s: fleet map before the change: %+v", change.name, before)
		}
		for i, ep := range c.endpoints {
			ep.setInfo(fleetInfo(32*i, 32, change.edit))
		}
		c.refreshMap()
		after := c.currentMap()
		if after == nil || after.epoch <= before.epoch || !change.holds(after) {
			t.Errorf("%s changed on every shard: map %+v kept from epoch %d", change.name, after, before.epoch)
		}
	}
}

func TestLiveEndpointOrdering(t *testing.T) {
	h1 := &endpoint{url: "h1", state: StateHealthy}
	h2 := &endpoint{url: "h2", state: StateHealthy}
	pr := &endpoint{url: "p", state: StateProbation}
	dd := &endpoint{url: "d", state: StateDead}
	rng := &shardRange{endpoints: []*endpoint{h1, dd, h2, pr}}

	got := liveEndpoints(rng, 0)
	if len(got) != 3 || got[0] != h1 || got[1] != h2 || got[2] != pr {
		t.Errorf("rot 0: %v", names(got))
	}
	got = liveEndpoints(rng, 1)
	if len(got) != 3 || got[0] != h2 || got[1] != h1 || got[2] != pr {
		t.Errorf("rot 1: %v (probation must stay last)", names(got))
	}
}

func names(eps []*endpoint) []string {
	var out []string
	for _, ep := range eps {
		out = append(out, ep.url)
	}
	return out
}

// TestBatchBound: a coordinator batch is bounded as a server's is (the
// wire contract's "oversize batch" row): a shard takes no more than that
// many items in one frame, so the largest batch still travels as one
// frame per shard and hop.
func TestBatchBound(t *testing.T) {
	f := newFleet(t, Config{}, false)
	rt := wiretest.Routes[4] // batch/nearest

	before := server.ReadStats()
	a := rt.Ask(t, f.ts.URL, wiretest.Variant{Items: server.DefaultMaxBatch, Mode: server.ModeSketch})
	var br server.BatchResponse
	if err := json.Unmarshal(a.Body, &br); err != nil || a.Code != 200 || br.Served != server.DefaultMaxBatch {
		t.Fatalf("batch of %d: status %d, %+v, %v", server.DefaultMaxBatch, a.Code, br.Served, err)
	}
	// Every item has the same owner: one owner frame, one frame to each
	// of the two other shards, every frame full.
	after := server.ReadStats()
	if sent, items := after.ShardSubqueries-before.ShardSubqueries, after.ShardSubqueryItems-before.ShardSubqueryItems; sent != 3 || items != 3*server.DefaultMaxBatch {
		t.Errorf("batch of %d sent %d sub-requests of %d items, want 3 of %d", server.DefaultMaxBatch, sent, items, 3*server.DefaultMaxBatch)
	}
}

// bareCoordinator is a Coordinator of cfg with no endpoints, prober or
// HTTP server: what the map and health tests drive by hand.
func bareCoordinator(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg, pipe: server.NewPipeline(server.Config{}, cfg.MaxTimeout, server.Counters{})}
}
