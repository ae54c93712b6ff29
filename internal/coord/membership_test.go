// Tests of dynamic fleet membership: the loopback-gated admin surface
// (register/deregister with drain), the epoch-stamped shard map, the
// deregistration fence and its gap semantics, the coordinator-routed
// ingest proxy, and the seeded probe-interval jitter. The invariant
// carried over from the chaos suite holds throughout: membership edits
// may make answers partial (tagged) or unavailable (503), never
// silently wrong.
package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
)

func httpPostForm(t *testing.T, u string, vals url.Values) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.PostForm(u, vals)
	if err != nil {
		t.Fatalf("POST %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", u, err)
	}
	return resp.StatusCode, resp.Header, body
}

// headerEpoch parses the X-Tabmine-Epoch stamp (0 = absent).
func headerEpoch(h http.Header) int64 {
	e, _ := strconv.ParseInt(h.Get("X-Tabmine-Epoch"), 10, 64)
	return e
}

// TestProbeJitterDeterministic: the jitter stream is a seeded PCG —
// one seed replays the identical probe schedule, every draw stays in
// [0.9, 1.1)×base, and different seeds diverge.
func TestProbeJitterDeterministic(t *testing.T) {
	base := 250 * time.Millisecond
	draw := func(seed uint64, n int) []time.Duration {
		rng := rand.New(rand.NewPCG(seed, 0x70726f6265))
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = jitteredInterval(base, rng)
		}
		return out
	}
	a, b := draw(42, 64), draw(42, 64)
	lo, hi := time.Duration(float64(base)*0.9), time.Duration(float64(base)*1.1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
		if a[i] < lo || a[i] >= hi {
			t.Errorf("draw %d: %v outside [%v, %v)", i, a[i], lo, hi)
		}
	}
	c := draw(43, 64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the identical jitter stream")
	}
}

// TestRegisterDeregisterLifecycle is the planned-handoff protocol over
// the admin surface: register a replacement for a band, wait for it to
// earn traffic through probation, deregister the old owner with drain,
// and verify the fleet still answers reference-equal with the counters
// and epoch telling the story.
func TestRegisterDeregisterLifecycle(t *testing.T) {
	f := newFleet(t, Config{}, false)
	stats0 := ReadStats()
	epoch0 := f.coord.Epoch()
	if epoch0 < 1 {
		t.Fatalf("healthy fleet at epoch %d, want >= 1", epoch0)
	}

	// Every answer carries the epoch stamp, and it matches Epoch().
	path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(4)))
	code, hdr, body := wiretest.Get(t, f.ts.URL+path)
	if code != 200 {
		t.Fatalf("pre-handoff nearest: %d (%s)", code, body)
	}
	if he := headerEpoch(hdr); he != epoch0 {
		t.Errorf("X-Tabmine-Epoch %d, Epoch() %d", he, epoch0)
	}

	// Register a replacement serving band 1's snapshot.
	repl := f.spawnShard(t, f.shards[1].snap, server.Config{})
	code, _, body = httpPostForm(t, f.ts.URL+"/admin/register", url.Values{"endpoint": {repl.url()}})
	var reg adminResult
	if code != 200 || json.Unmarshal(body, &reg) != nil {
		t.Fatalf("/admin/register: %d (%s)", code, body)
	}
	if reg.Status != "registered" || reg.Endpoint != repl.url() {
		t.Errorf("register result: %+v", reg)
	}
	waitStateURL(t, f.coord, repl.url(), StateHealthy)
	epoch1 := f.coord.Epoch()
	if epoch1 <= epoch0 {
		t.Errorf("epoch did not advance across registration: %d -> %d", epoch0, epoch1)
	}

	// Deregister the old band-1 owner, draining its in-flight work.
	code, _, body = httpPostForm(t, f.ts.URL+"/admin/deregister",
		url.Values{"endpoint": {f.shards[1].url()}, "drain": {"true"}})
	var dereg adminResult
	if code != 200 || json.Unmarshal(body, &dereg) != nil {
		t.Fatalf("/admin/deregister: %d (%s)", code, body)
	}
	if dereg.Status != "deregistered" || !dereg.Drained || dereg.Epoch <= epoch1 {
		t.Errorf("deregister result: %+v (epoch before %d)", dereg, epoch1)
	}
	for _, ep := range f.coord.memberSnapshot() {
		if ep.url == f.shards[1].url() {
			t.Errorf("deregistered endpoint still in the fleet")
		}
	}

	// The band answers clean and reference-equal from the replacement.
	if !f.coord.Ready() {
		t.Error("Ready() false after a covered handoff")
	}
	code, hdr, body = wiretest.Get(t, f.ts.URL+path)
	if code != 200 {
		t.Fatalf("post-handoff nearest: %d (%s)", code, body)
	}
	if he := headerEpoch(hdr); he != dereg.Epoch {
		t.Errorf("post-handoff epoch stamp %d, want %d", he, dereg.Epoch)
	}
	var res NearestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if res.Partial {
		t.Errorf("covered handoff answered partial: %s", body)
	}
	var ref server.NearestResult
	_, _, refBody := wiretest.Get(t, f.ref.URL+path)
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatalf("ref: %v", err)
	}
	if res.Tile != ref.Tile || res.Rect != ref.Rect || !closeEnough(res.Distance, ref.Distance) {
		t.Errorf("post-handoff mismatch: ref %+v, coord %s", ref, body)
	}

	stats1 := ReadStats()
	if d := stats1.Registers - stats0.Registers; d != 1 {
		t.Errorf("register counter advanced by %d, want 1", d)
	}
	if d := stats1.Deregisters - stats0.Deregisters; d != 1 {
		t.Errorf("deregister counter advanced by %d, want 1", d)
	}
	if stats1.Epoch != f.coord.Epoch() {
		t.Errorf("epoch gauge %d, Epoch() %d", stats1.Epoch, f.coord.Epoch())
	}
	// The state gauges converge to the steady fleet: 3 healthy.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := ReadStats()
		if s.EndpointsHealthy == 3 && s.EndpointsProbation == 0 && s.EndpointsDead == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint gauges stuck at healthy=%d probation=%d dead=%d",
				s.EndpointsHealthy, s.EndpointsProbation, s.EndpointsDead)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeregisterDrainWaitsInflight: deregistration with drain does not
// return while a sub-query launched before the fence is still running
// against the endpoint — "deregister returned 200" licenses tearing
// the process down.
func TestDeregisterDrainWaitsInflight(t *testing.T) {
	f := newFleet(t, Config{}, false)
	g := faultinject.NewGate()
	f.shards[2].gate.Store(g)

	// Park one query inside shard 2's sketch handler.
	qDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(f.ts.URL + fmt.Sprintf("/v1/nearest?q=%s&mode=sketch&timeout_ms=10000",
			server.FormatRect(tileRect(8))))
		if err != nil {
			qDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		qDone <- resp.StatusCode
	}()
	g.AwaitArrivals(1)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := f.coord.Deregister(ctx, f.shards[2].url(), true)
		drainDone <- err
	}()
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned (%v) while a sub-query was parked in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	g.Open()
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain after gate opened: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after the gate opened")
	}
	// The parked query completes against the pre-fence map.
	if code := <-qDone; code != 200 {
		t.Errorf("in-flight query finished with %d, want 200", code)
	}
}

// TestDeregisterSoleOwnerGapAnswers: removing a band's only endpoint
// opens a column gap. Gap columns must surface as Missing tags or
// clean 503s — never as a silently narrowed answer — and registering a
// replacement closes the gap.
func TestDeregisterSoleOwnerGapAnswers(t *testing.T) {
	f := newFleet(t, Config{}, false)
	epoch0 := f.coord.Epoch()

	code, _, body := httpPostForm(t, f.ts.URL+"/admin/deregister",
		url.Values{"endpoint": {f.shards[1].url()}, "drain": {"false"}})
	if code != 200 {
		t.Fatalf("/admin/deregister: %d (%s)", code, body)
	}
	if f.coord.Ready() {
		t.Error("Ready() true with cols 32-64 uncovered")
	}
	if e := f.coord.Epoch(); e <= epoch0 {
		t.Errorf("epoch did not advance across deregistration: %d -> %d", epoch0, e)
	}

	// A band-0 query answers from the survivors, tagged with the gap.
	path := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(0)))
	code, _, body = wiretest.Get(t, f.ts.URL+path)
	if code != 200 {
		t.Fatalf("gap-era nearest: %d (%s)", code, body)
	}
	var res NearestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != "32-64" {
		t.Errorf("gap tags: %s", body)
	}

	// partial=deny and gap-owned queries refuse cleanly.
	code, hdr, body := wiretest.Get(t, f.ts.URL+path+"&partial=deny")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("gap partial=deny: %d, Retry-After %q (%s)", code, hdr.Get("Retry-After"), body)
	}
	owned := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(4)))
	code, hdr, body = wiretest.Get(t, f.ts.URL+owned)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("gap-owned query: %d (%s)", code, body)
	}
	dpath := fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=sketch",
		server.FormatRect(tileRect(4)), server.FormatRect(tileRect(0)))
	if code, _, body = wiretest.Get(t, f.ts.URL+dpath); code != http.StatusServiceUnavailable {
		t.Errorf("gap-resident distance: %d (%s)", code, body)
	}
	// Exact distance inside the gap is an availability problem (503),
	// not a spans-a-boundary client error (400).
	epath := fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=exact",
		server.FormatRect(tileRect(4)), server.FormatRect(tileRect(16)))
	if code, _, body = wiretest.Get(t, f.ts.URL+epath); code != http.StatusServiceUnavailable {
		t.Errorf("gap-resident exact distance: %d (%s)", code, body)
	}

	// Register a replacement: the gap closes and answers are clean again.
	repl := f.spawnShard(t, f.shards[1].snap, server.Config{})
	if code, _, body = httpPostForm(t, f.ts.URL+"/admin/register",
		url.Values{"endpoint": {repl.url()}}); code != 200 {
		t.Fatalf("/admin/register replacement: %d (%s)", code, body)
	}
	waitStateURL(t, f.coord, repl.url(), StateHealthy)
	if !f.coord.Ready() {
		t.Error("Ready() false after the replacement was admitted")
	}
	code, _, body = wiretest.Get(t, f.ts.URL+owned)
	if code != 200 {
		t.Fatalf("post-replacement nearest: %d (%s)", code, body)
	}
	var healed NearestResult
	if err := json.Unmarshal(body, &healed); err != nil || healed.Partial {
		t.Errorf("post-replacement answer: %s (err %v)", body, err)
	}
}

// TestSetEndpointsReconcile drives the SIGHUP path: reconcile the fleet
// against a re-read shard list, registering the difference and fencing
// plus background-draining the members that fell off the list.
func TestSetEndpointsReconcile(t *testing.T) {
	f := newFleet(t, Config{}, false)
	repl := f.spawnShard(t, f.shards[2].snap, server.Config{})

	want := []string{f.shards[0].url(), f.shards[1].url(), repl.url()}
	added, removed, err := f.coord.SetEndpoints(want)
	if err != nil {
		t.Fatalf("SetEndpoints: %v", err)
	}
	if len(added) != 1 || added[0] != repl.url() {
		t.Errorf("added %v, want [%s]", added, repl.url())
	}
	if len(removed) != 1 || removed[0] != f.shards[2].url() {
		t.Errorf("removed %v, want [%s]", removed, f.shards[2].url())
	}
	// Removal drains in the background; membership converges.
	deadline := time.Now().Add(5 * time.Second)
	for {
		urls := map[string]bool{}
		for _, ep := range f.coord.memberSnapshot() {
			urls[ep.url] = true
		}
		if !urls[f.shards[2].url()] && urls[repl.url()] && len(urls) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %v", urls)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitStateURL(t, f.coord, repl.url(), StateHealthy)
	if !f.coord.Ready() {
		t.Error("Ready() false after reconciliation")
	}

	// A truncated list must not empty a serving fleet.
	if _, _, err := f.coord.SetEndpoints(nil); err == nil {
		t.Error("SetEndpoints(nil) did not refuse")
	}
}

// TestAdminValidation: the admin surface refuses non-loopback peers,
// wrong methods, malformed parameters, duplicates, and unknowns with
// distinct statuses.
func TestAdminValidation(t *testing.T) {
	f := newFleet(t, Config{}, false)

	if code, hdr, _ := wiretest.Get(t, f.ts.URL+"/admin/register"); code != http.StatusMethodNotAllowed ||
		hdr.Get("Allow") != http.MethodPost {
		t.Errorf("GET /admin/register: %d, Allow %q", code, hdr.Get("Allow"))
	}
	cases := []struct {
		path string
		vals url.Values
		want int
	}{
		{"/admin/register", url.Values{}, http.StatusBadRequest},
		{"/admin/register", url.Values{"endpoint": {"not a url"}}, http.StatusBadRequest},
		{"/admin/register", url.Values{"endpoint": {f.shards[0].url()}}, http.StatusConflict},
		{"/admin/deregister", url.Values{"endpoint": {"http://127.0.0.1:1/nope"}}, http.StatusNotFound},
		{"/admin/deregister", url.Values{"endpoint": {f.shards[0].url()}, "drain": {"banana"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _, body := httpPostForm(t, f.ts.URL+tc.path, tc.vals); code != tc.want {
			t.Errorf("POST %s %v: %d, want %d (%s)", tc.path, tc.vals, code, tc.want, body)
		}
	}

	// A non-loopback peer is refused before any parsing happens.
	req := httptest.NewRequest(http.MethodPost, "/admin/register",
		strings.NewReader("endpoint="+url.QueryEscape(f.shards[0].url())))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.RemoteAddr = "203.0.113.9:4444"
	rec := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Errorf("non-loopback admin call: %d, want 403", rec.Code)
	}

	for addr, want := range map[string]bool{
		"127.0.0.1:5000": true, "[::1]:80": true, "127.8.4.4": true,
		"203.0.113.9:4444": false, "10.0.0.1:1": false, "garbage": false, "": false,
	} {
		if got := isLoopbackAddr(addr); got != want {
			t.Errorf("isLoopbackAddr(%q) = %v, want %v", addr, got, want)
		}
	}

	// The fleet is untouched by the refusals.
	if got := len(f.coord.memberSnapshot()); got != 3 {
		t.Errorf("fleet size %d after refused admin calls, want 3", got)
	}
}

// recIngestor is a recording stub Ingestor: it stores record bodies as
// labels and, with backlog set, refuses with ErrIngestBacklog (which
// the server maps to 503 + Retry-After).
type recIngestor struct {
	mu      sync.Mutex
	labels  []string
	backlog atomic.Bool
}

func (ri *recIngestor) IngestRecord(_ context.Context, body io.Reader) (*server.IngestResult, error) {
	b, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	if ri.backlog.Load() {
		return nil, fmt.Errorf("stub queue full: %w", server.ErrIngestBacklog)
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.labels = append(ri.labels, string(b))
	return &server.IngestResult{Label: string(b), Cols: 1, ColsTotal: len(ri.labels)}, nil
}

func (ri *recIngestor) got() []string {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return append([]string(nil), ri.labels...)
}

// TestIngestProxy: POST /v1/ingest on the coordinator lands on the
// shard owning the rightmost column band, relays backpressure verbatim
// without striking the shard's health, and maps transport failures to
// 502 without retrying (a replay could double-ingest).
func TestIngestProxy(t *testing.T) {
	ings := []*recIngestor{{}, {}, {}}
	f := newFleetSrv(t, Config{}, false, func(i int) server.Config {
		return server.Config{Ingestor: ings[i]}
	})
	stats0 := ReadStats()

	post := func(rec string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(f.ts.URL+"/v1/ingest", "application/octet-stream", strings.NewReader(rec))
		if err != nil {
			t.Fatalf("POST /v1/ingest: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, body
	}

	code, hdr, body := post("rec-a")
	if code != 200 {
		t.Fatalf("ingest: %d (%s)", code, body)
	}
	if headerEpoch(hdr) == 0 {
		t.Error("ingest answer missing the epoch stamp")
	}
	var res server.IngestResult
	if err := json.Unmarshal(body, &res); err != nil || res.Label != "rec-a" {
		t.Errorf("ingest result %s (err %v)", body, err)
	}
	if got := ings[2].got(); len(got) != 1 || got[0] != "rec-a" {
		t.Errorf("rightmost shard stored %v, want [rec-a]", got)
	}
	if len(ings[0].got())+len(ings[1].got()) != 0 {
		t.Errorf("non-rightmost shards received ingests: %v / %v", ings[0].got(), ings[1].got())
	}

	// Backpressure relays verbatim and does not strike the endpoint.
	ings[2].backlog.Store(true)
	for i := 0; i < 4; i++ {
		code, hdr, body = post("rec-b")
		if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Fatalf("backpressure relay: %d, Retry-After %q (%s)", code, hdr.Get("Retry-After"), body)
		}
	}
	waitStateURL(t, f.coord, f.shards[2].url(), StateHealthy) // still healthy: 503 is load, not death

	// The retrying client rides the 503s out: Sleep stands in for the
	// backoff wait and clears the backlog, so the second attempt lands.
	cl, err := client.New(client.Config{
		BaseURL: f.ts.URL, MaxAttempts: 3,
		Sleep: func(context.Context, time.Duration) error {
			ings[2].backlog.Store(false)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	ires, err := cl.Ingest(context.Background(), []byte("rec-c"))
	if err != nil {
		t.Fatalf("client Ingest through backpressure: %v", err)
	}
	if ires.Label != "rec-c" {
		t.Errorf("ingest ack %+v, want label rec-c", ires)
	}

	// A severed connection is ambiguous: 502, no retry, no failover.
	br := &faultinject.Breaker{}
	br.Trip()
	f.shards[2].kill.Store(br)
	code, _, body = post("rec-d")
	if code != http.StatusBadGateway {
		t.Errorf("severed ingest: %d (%s), want 502", code, body)
	}
	f.shards[2].kill.Store(nil)
	if br.Hits() == 0 {
		t.Error("the breaker severed nothing: the 502 is not the kill's")
	}
	if got := ings[2].got(); len(got) != 2 || got[1] != "rec-c" {
		t.Errorf("rightmost shard stored %v, want [rec-a rec-c]", got)
	}

	if code, hdr, _ = wiretest.Get(t, f.ts.URL+"/v1/ingest"); code != http.StatusMethodNotAllowed ||
		hdr.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/ingest: %d, Allow %q", code, hdr.Get("Allow"))
	}

	if d := ReadStats().IngestProxied - stats0.IngestProxied; d < 3 {
		t.Errorf("ingest proxy counter advanced by %d, want >= 3", d)
	}
}

// TestStaleBaseColFence: a process that reuses a registered address but
// serves a different column placement is fenced by the base_col echo —
// its answers are never merged as if they covered the mapped columns.
// (The supported handoff protocol never creates this state; the fence
// is the backstop for an in-place swap the prober has not seen yet.)
func TestStaleBaseColFence(t *testing.T) {
	// Probes effectively off: the initial synchronous round builds the
	// map, then placement knowledge goes stale on purpose.
	f := newFleet(t, Config{ProbeInterval: time.Hour}, false)

	// Swap shard 1's handler for a server whose snapshot claims base
	// col 0 (shard 0's snapshot) — same sketch params, wrong placement.
	impostor, err := server.New(f.shards[0].snap, server.Config{})
	if err != nil {
		t.Fatalf("impostor New: %v", err)
	}
	f.shards[1].h.Store(impostor.Handler())

	// A query OWNED by the swapped band: the owner's sketch comes back
	// for the wrong columns, is fenced, and the query refuses cleanly.
	owned := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(4)))
	code, hdr, body := wiretest.Get(t, f.ts.URL+owned)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("stale owner: %d (%s), want 503", code, body)
	}

	// A query owned elsewhere: the swapped band's fan-out answer is
	// fenced too, so the merge is honest — partial, naming the columns.
	other := fmt.Sprintf("/v1/nearest?q=%s&mode=sketch", server.FormatRect(tileRect(0)))
	code, _, body = wiretest.Get(t, f.ts.URL+other)
	if code != 200 {
		t.Fatalf("fan-out past stale shard: %d (%s)", code, body)
	}
	var res NearestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != "32-64" {
		t.Errorf("stale shard not fenced out of the merge: %s", body)
	}
	ref := mustNearest(t, f.ref.URL+other)
	if res.Tile == -1 || (res.Tile == ref.Tile && !closeEnough(res.Distance, ref.Distance) &&
		res.Distance < ref.Distance) {
		t.Errorf("fenced merge produced an impossible best: %s (ref %+v)", body, ref)
	}
}

func mustNearest(t *testing.T, u string) server.NearestResult {
	t.Helper()
	code, _, body := wiretest.Get(t, u)
	var res server.NearestResult
	if code != 200 || json.Unmarshal(body, &res) != nil {
		t.Fatalf("GET %s: %d (%s)", u, code, body)
	}
	return res
}
