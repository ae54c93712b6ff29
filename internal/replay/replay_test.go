// Tests of the replay driver against a real in-process server: workload
// determinism, op-mixture parsing, and outcome classification (served /
// shed / degraded).
package replay

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

var (
	snapOnce sync.Once
	snapVal  *server.Snapshot
	snapErr  error
)

// snap builds a small shared snapshot: 32x32 table, 8x8 tiles, 2
// clusters.
func snap(t *testing.T) *server.Snapshot {
	t.Helper()
	snapOnce.Do(func() {
		tb := workload.Random(32, 32, 10, 3)
		pool, err := core.NewPool(tb, 1, 16, 5, core.PoolOptions{
			MinLogRows: 3, MaxLogRows: 3, MinLogCols: 3, MaxLogCols: 3,
		})
		if err != nil {
			snapErr = err
			return
		}
		snapVal, snapErr = server.BuildSnapshot(context.Background(), tb, pool, server.SnapshotConfig{
			TileRows: 8, TileCols: 8, Clusters: 2, Seed: 5,
		})
	})
	if snapErr != nil {
		t.Fatalf("snapshot: %v", snapErr)
	}
	return snapVal
}

func serve(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	s, err := server.New(snap(t), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

var testGeom = &geometry{gridCols: 4, tileRows: 8, tileCols: 8, tiles: 16}

func build(t *testing.T, cfg Config) []string {
	t.Helper()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	return buildWorkload(&cfg, testGeom)
}

// TestWorkloadDeterministic: the same seed yields the identical request
// stream; a different seed does not.
func TestWorkloadDeterministic(t *testing.T) {
	mk := func(seed uint64) []string {
		return build(t, Config{BaseURL: "http://x", Queries: 40, Seed: seed})
	}
	same1, same2 := mk(7), mk(7)
	if len(same1) != 40 {
		t.Fatalf("got %d requests, want 40", len(same1))
	}
	for i := range same1 {
		if same1[i] != same2[i] {
			t.Fatalf("request %d differs under one seed: %q vs %q", i, same1[i], same2[i])
		}
	}
	diff := mk(8)
	equal := 0
	for i := range same1 {
		if same1[i] == diff[i] {
			equal++
		}
	}
	if equal == len(same1) {
		t.Error("seed change left the workload identical")
	}
}

// TestMixedWorkloadDeterministic builds the same mixed-op stream twice
// and checks (a) identical output, (b) every op in the mixture actually
// appears, (c) the tile stream is unchanged by the mixture — the op draw
// must come from its own PCG stream.
func TestMixedWorkloadDeterministic(t *testing.T) {
	mk := func(ops []OpWeight) []string {
		return build(t, Config{
			BaseURL: "http://example.invalid", Queries: 200, Rate: 100,
			Ops: ops, Mode: "sketch", Seed: 7,
		})
	}
	mix := []OpWeight{{Op: "nearest", Weight: 3}, {Op: "distance", Weight: 2}, {Op: "assign", Weight: 1}}

	a, b := mk(mix), mk(mix)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("want 200 requests, got %d and %d", len(a), len(b))
	}
	seen := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical builds:\n  %s\n  %s", i, a[i], b[i])
		}
		op := strings.TrimPrefix(a[i], "/v1/")
		seen[op[:strings.IndexAny(op, "?")]]++
	}
	for _, ow := range mix {
		if seen[ow.Op] == 0 {
			t.Errorf("op %s never drawn in 200 requests: %v", ow.Op, seen)
		}
	}
	if seen["nearest"] <= seen["assign"] {
		t.Errorf("weights ignored: %v", seen)
	}

	// Same seed, nearest only: the op draw comes from its own PCG stream,
	// so the underlying TILE stream is shared. A distance request consumes
	// two tile draws where nearest consumes one, so the runs align on the
	// flattened draw sequence, not request-for-request.
	plain, mixed := rectSeq(t, mk(nil)), rectSeq(t, a)
	for i := 0; i < min(len(plain), len(mixed)); i++ {
		if plain[i] != mixed[i] {
			t.Fatalf("tile draw %d: mixture perturbed the tile stream: %s vs %s",
				i, plain[i], mixed[i])
		}
	}
}

// rectSeq flattens a workload into its ordered sequence of tile draws
// (the q, a, b rect parameters), normalizing away op-dependent key
// names.
func rectSeq(t *testing.T, paths []string) []string {
	t.Helper()
	var rects []string
	for _, path := range paths {
		q := path[strings.IndexAny(path, "?")+1:]
		for _, kv := range strings.Split(q, "&") {
			if strings.HasPrefix(kv, "q=") || strings.HasPrefix(kv, "a=") || strings.HasPrefix(kv, "b=") {
				rects = append(rects, kv[2:])
			}
		}
	}
	if len(rects) == 0 {
		t.Fatal("no rect params in workload")
	}
	return rects
}

// TestParseOps: the drills' -ops list parses to its weighted mixture,
// and an unknown op, a weight that is not a positive number, or an
// empty list is refused — a typo can never silently change a drill's
// traffic.
func TestParseOps(t *testing.T) {
	got, err := ParseOps("nearest:3,distance:2, assign:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []OpWeight{{"nearest", 3}, {"distance", 2}, {"assign", 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: got %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"", " ", "nearest:3,distnace:2", "nearst:1", "nearest", "nearest:",
		"nearest:0", "nearest:-1", "nearest:NaN", "nearest:+Inf", "nearest:x",
		"nearest:1,", ",nearest:1",
	} {
		if ops, err := ParseOps(bad); err == nil {
			t.Errorf("ParseOps(%q) = %v, want an error", bad, ops)
		}
	}
}

// TestReplayServes runs a real replay against an unloaded server: every
// query must be served, none shed, and the report coherent.
func TestReplayServes(t *testing.T) {
	ts := serve(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Queries: 60, Rate: 5000,
		Ops:  []OpWeight{{"nearest", 1}, {"distance", 1}, {"assign", 1}},
		Mode: server.ModeSketch, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 60 || rep.Shed != 0 || rep.TimedOut != 0 || rep.Errors != 0 || rep.Overflow != 0 {
		t.Errorf("%+v", rep)
	}
	if rep.Tiles != 16 || rep.Queries != 60 || rep.ElapsedSec <= 0 {
		t.Errorf("implausible report %+v", rep)
	}
}

// TestReplayClassifiesShed: a server that always sheds yields shed
// counts and nothing served.
func TestReplayClassifiesShed(t *testing.T) {
	real := serve(t, server.Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(real.URL + "/healthz")
		if err != nil {
			w.WriteHeader(500)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(200)
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		w.Write(buf[:n])
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"saturated"}`, http.StatusServiceUnavailable)
	})
	shedTS := httptest.NewServer(mux)
	defer shedTS.Close()

	rep, err := Run(context.Background(), Config{BaseURL: shedTS.URL, Queries: 30, Rate: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 30 || rep.Served != 0 || rep.Errors != 0 {
		t.Errorf("shed %d served %d errors %d, want 30 / 0 / 0", rep.Shed, rep.Served, rep.Errors)
	}
}

// TestReplayCountsDegraded: mode=auto against a server whose degrade
// threshold is below one query's own occupancy must report every served
// answer degraded through its tag.
func TestReplayCountsDegraded(t *testing.T) {
	// One admitted query alone puts occupancy at 1/65 > 1%.
	ts := serve(t, server.Config{MaxInflight: 1, MaxQueue: 64, DegradeAt: 0.01})
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Queries: 40, Rate: 5000, Mode: server.ModeAuto, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 {
		t.Fatalf("nothing served: %+v", rep)
	}
	if rep.Degraded != rep.Served {
		t.Errorf("%d of %d served answers degraded, want all: %+v", rep.Degraded, rep.Served, rep)
	}
}
