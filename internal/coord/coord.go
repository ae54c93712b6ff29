// Package coord is the scatter-gather layer over a fleet of
// internal/server shards: one table sharded along the time (column)
// axis, each shard serving its own column slice with its own sketch
// pool. The coordinator owns the shard map — which global column range
// lives where, learned and refreshed from /v1/shardinfo — fans queries
// out over the shards' sketch sub-query endpoints, and merges the
// answers:
//
//   - distance: per-shard rectangle sketches, differenced under the
//     shared O(k) estimator (equal to an unsharded server for
//     shard-contained rectangles up to float accumulation order,
//     because pool sketch randomness is position-independent);
//   - nearest: per-shard best tiles, merged by (distance, global tile
//     index) — the within-shard lowest-local-index tie-break is also
//     the lowest-global-index tie-break, so the merge reproduces the
//     unsharded argmin;
//   - assign: per-shard best medoids (clusterings are shard-local).
//
// Robustness is the point of the layer, not an afterthought: shards
// are actively probed and ejected after consecutive failures, re-enter
// through probation, stragglers are hedged to a replica, every
// sub-query gets a deadline carved from the request budget, and when a
// shard is unreachable the caller chooses — partial=allow answers from
// the shards that remain, honestly tagged with the column ranges that
// are missing; partial=deny turns any gap into a clean 503.
package coord

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/table"
)

// State is an endpoint's health as seen by the coordinator's prober.
type State int

const (
	// StateHealthy endpoints receive traffic and are first choice.
	StateHealthy State = iota
	// StateProbation endpoints passed ReadmitAfter probes after death
	// and receive traffic again, but one failure sends them straight
	// back to dead (no EjectAfter grace).
	StateProbation
	// StateDead endpoints receive no traffic until they pass
	// ReadmitAfter consecutive probes.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateProbation:
		return "probation"
	default:
		return "dead"
	}
}

// subAttempts bounds the retrying client's tries per sub-query: one
// retry, then the hedging/failover machinery takes over — deep
// per-endpoint retry loops and cross-endpoint failover multiply into
// retry storms.
const subAttempts = 2

// Config tunes the coordinator. Zero values get defaults from New.
type Config struct {
	// Endpoints are the shard base URLs (e.g. "http://127.0.0.1:7001").
	// Two endpoints reporting the same column range form a replica
	// group: load spreads across them and stragglers hedge to the next.
	Endpoints []string

	// PartialDeny makes partial answers opt-in instead of opt-out: by
	// default (false) a query touching an unreachable shard still
	// answers from the reachable ones, tagged partial; with PartialDeny
	// (or per-query partial=deny) it fails with 503 + Retry-After.
	PartialDeny bool

	// ProbeInterval is the active health-probe period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default ProbeInterval).
	ProbeTimeout time.Duration
	// EjectAfter ejects a healthy endpoint after this many consecutive
	// failures, probe or passive (default 3).
	EjectAfter int
	// ReadmitAfter re-admits a dead endpoint into probation after this
	// many consecutive probe successes, and promotes probation to
	// healthy after as many more (default 2).
	ReadmitAfter int

	// HedgeDelay is how long a sub-query waits before hedging to the
	// next endpoint of the same replica group (default 30ms). Hedging
	// never fires within a single-endpoint group: re-sending the same
	// query to the same struggling process doubles its load for zero
	// information.
	HedgeDelay time.Duration
	// MergeReserve is the slice of the request budget kept back from
	// sub-query deadlines for the coordinator's own merge work
	// (default 10ms).
	MergeReserve time.Duration

	// DefaultTimeout/MaxTimeout mirror the server's request-budget
	// policy (defaults 2s / 30s). The front's write timeout outlasts
	// MaxTimeout (server.NewFront).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// JitterSeed seeds the probe-period jitter stream: every wait
	// between probe rounds draws from [0.9, 1.1)×ProbeInterval, so
	// multiple coordinators fronting one fleet spread their probe storms
	// instead of synchronizing them. Seeded (PCG), so one coordinator's
	// schedule is still fully deterministic; 0 is a valid seed.
	JitterSeed uint64

	// OnStateChange observes endpoint health transitions (test hook;
	// called from the prober goroutine and the serving path).
	OnStateChange func(endpoint string, from, to State)
	// Logf receives operational log lines; nil is silent.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.MergeReserve <= 0 {
		c.MergeReserve = 10 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// shardRange is one column slice of the global table and the replica
// group serving it.
type shardRange struct {
	baseCol, cols int
	endpoints     []*endpoint // discovery order; selection rotates
}

func (r *shardRange) String() string {
	return fmt.Sprintf("cols %d-%d", r.baseCol, r.baseCol+r.cols)
}

// shardMap is the immutable routing state one request resolves once:
// the global geometry, the merge-compatible sketch parameters, and the
// column ranges in ascending order. The prober and the membership ops
// swap whole maps atomically, exactly like the server swaps snapshots.
type shardMap struct {
	// epoch stamps this routing state: it increments every time the
	// swapped-in map differs from its predecessor (membership change,
	// BaseCol move, replica set change) and is echoed on every answer
	// in the X-Tabmine-Epoch header, so a drill under live traffic can
	// prove a cutover happened and a client can correlate an answer
	// with the fleet state that produced it.
	epoch int64

	rows, cols         int // global table dims
	tileRows, tileCols int
	clusters           int // min across shards; 0 disables /v1/assign

	p     float64
	k     int
	seed  uint64
	sdist func(a, b []float64) float64 // O(k) estimator (core.NewSketchDist)

	ranges []*shardRange // ascending baseCol
	// complete: ranges tile [0, cols) contiguously from 0. Incomplete
	// maps still serve queries that fit the known ranges; /readyz gates
	// on completeness.
	complete bool
	// gaps are the column spans of [0, cols) no range covers. A dead
	// endpoint keeps its last-known placement, so ordinary outages never
	// create gaps — deregistering a band's only endpoint does. Gap
	// columns must surface as Missing tags (or deny→503), never as a
	// silently narrowed answer: that would be the unflagged-wrong
	// failure mode this layer exists to rule out.
	gaps [][2]int
}

func (m *shardMap) gridRows() int { return m.rows / m.tileRows }
func (m *shardMap) gridCols() int { return m.cols / m.tileCols }

// owner returns the index of the range that owns r, or why none does:
// r touches a column span no known shard covers — an availability
// problem, 503 + Retry-After, since registering a replacement can fix it
// — or r spans a shard boundary, the caller's 400. A spanning rectangle
// has no merged answer: the pool's matrices depend on (size, set), never
// on position, so a sum of its per-shard chunk sketches sketches the
// chunks laid on top of each other, not the rectangle (DESIGN.md §13).
func (m *shardMap) owner(r table.Rect) (int, error) {
	c0, c1 := r.C0, r.C0+r.Cols
	for i, rng := range m.ranges {
		if c0 >= rng.baseCol && c1 <= rng.baseCol+rng.cols {
			return i, nil
		}
	}
	for _, g := range m.gaps {
		if c0 < g[1] && c1 > g[0] {
			return -1, unavailablef("no shard known for cols %s; register a replacement", colRange(c0, c1))
		}
	}
	return -1, fmt.Errorf("rect %v spans a shard boundary", r)
}

// Coordinator fans queries out over the shard fleet and merges the
// answers. Safe for concurrent use.
type Coordinator struct {
	cfg Config

	// mu guards endpoints (the membership list) and serializes shard-map
	// rebuilds; the request path never takes it — requests resolve the
	// atomic map pointer once and run against that immutable state.
	mu        sync.Mutex
	endpoints []*endpoint
	// lostCols is the table width a Deregister found: the map keeps it
	// until an endpoint serves those columns again, so a lost last range
	// is a gap, not a narrower table. Guarded by mu.
	lostCols int

	pipe  *server.Pipeline // the fleet edge: admission (sized by refreshMap) and the error map
	mp    atomic.Pointer[shardMap]
	epoch atomic.Int64  // allocator for shardMap.epoch; monotone
	rr    atomic.Uint64 // round-robin seed for replica selection

	probeHTTP  *http.Client
	ingestHTTP *http.Client // non-retrying ingest proxy transport
	probeKick  chan struct{}
	stop       chan struct{}
	stopped    chan struct{}

	mux *http.ServeMux
	hs  *http.Server
}

// New builds a Coordinator over cfg.Endpoints, runs one synchronous
// probe round (so endpoints that are up serve immediately, without
// waiting out a probe period), builds the initial shard map from
// whatever answered, and starts the prober. An unreachable fleet is
// not an error — the coordinator starts in the not-ready state and
// admits shards as probes succeed. The fleet is mutable at runtime:
// see Register, Deregister, and SetEndpoints.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("coord: at least one shard endpoint required")
	}
	cfg.setDefaults()
	c := &Coordinator{
		cfg:        cfg,
		probeHTTP:  &http.Client{Timeout: cfg.ProbeTimeout},
		ingestHTTP: &http.Client{},
		probeKick:  make(chan struct{}, 1),
		stop:       make(chan struct{}),
		stopped:    make(chan struct{}),
		pipe: server.NewPipeline(server.Config{DefaultTimeout: cfg.DefaultTimeout}, cfg.MaxTimeout, server.Counters{
			Requests: mRequests, Served: mServed, Shed: mUnavailable, TimedOut: mTimedOut,
		}),
	}
	seen := map[string]bool{}
	for _, u := range cfg.Endpoints {
		if seen[u] {
			return nil, fmt.Errorf("coord: duplicate endpoint %q", u)
		}
		seen[u] = true
		ep, err := c.newEndpoint(u)
		if err != nil {
			return nil, err
		}
		c.endpoints = append(c.endpoints, ep)
	}
	c.probeRound(true)
	c.buildMux()
	go c.probeLoop()
	return c, nil
}

// newEndpoint builds the per-endpoint state (retrying sub-query client,
// dead-until-probed health) shared by New and Register.
func (c *Coordinator) newEndpoint(u string) (*endpoint, error) {
	cl, err := client.New(client.Config{
		BaseURL:     u,
		MaxAttempts: subAttempts,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Budget:      c.cfg.MaxTimeout,
		Logf:        c.cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("coord: endpoint %q: %w", u, err)
	}
	ep := &endpoint{url: u, cl: cl}
	ep.state = StateDead // until the first probe says otherwise
	return ep, nil
}

// memberSnapshot copies the membership list for lock-free iteration.
func (c *Coordinator) memberSnapshot() []*endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*endpoint(nil), c.endpoints...)
}

// Membership errors, distinguishable by the admin HTTP layer.
var (
	ErrDuplicateEndpoint = errors.New("endpoint already registered")
	ErrUnknownEndpoint   = errors.New("endpoint not registered")
)

// normalizeEndpoint canonicalizes a shard base URL the way the -shards
// flag parsing does (trailing slash stripped), and rejects anything
// that is not an absolute http(s) URL — an admin typo must fail the
// register call, not sit in the fleet as a permanently dead member.
func normalizeEndpoint(u string) (string, error) {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	pu, err := url.Parse(u)
	if err != nil || (pu.Scheme != "http" && pu.Scheme != "https") || pu.Host == "" {
		return "", fmt.Errorf("coord: bad endpoint %q (want http[s]://host:port)", u)
	}
	return u, nil
}

// Register adds a shard endpoint to the fleet at runtime. The endpoint
// starts dead and earns traffic through the same probe/probation
// machine every endpoint uses — registration is an invitation, not an
// admission — so a replacement shard is validated (reachable, ready,
// merge-compatible) before it ever serves a sub-query. A probe round is
// kicked immediately; the returned epoch is the shard map's current
// epoch (it advances when the newcomer actually enters the map).
func (c *Coordinator) Register(u string) (epoch int64, err error) {
	u, err = normalizeEndpoint(u)
	if err != nil {
		return c.epoch.Load(), err
	}
	c.mu.Lock()
	for _, ep := range c.endpoints {
		if ep.url == u {
			c.mu.Unlock()
			return c.epoch.Load(), fmt.Errorf("%w: %s", ErrDuplicateEndpoint, u)
		}
	}
	ep, err := c.newEndpoint(u)
	if err != nil {
		c.mu.Unlock()
		return c.epoch.Load(), err
	}
	c.endpoints = append(c.endpoints, ep)
	c.refreshMapLocked()
	c.mu.Unlock()
	mRegisters.Add(1)
	c.updateEndpointGauges()
	c.cfg.Logf("coord: registered endpoint %s (dead until probed)", u)
	c.kickProbe()
	return c.epoch.Load(), nil
}

// Deregister removes endpoint u from the fleet. The removal is fenced
// before it is drained: the endpoint's draining flag flips first (so
// requests holding an already-resolved map stop selecting it for NEW
// sub-queries), then the shard map rebuilds without it at a bumped
// epoch. With drain, Deregister then blocks until every in-flight
// sub-query against the endpoint has finished (or ctx expires — the
// endpoint stays deregistered either way; only the wait fails). The
// caller may tear the shard process down once Deregister returns nil.
func (c *Coordinator) Deregister(ctx context.Context, u string, drain bool) (epoch int64, err error) {
	u, err = normalizeEndpoint(u)
	if err != nil {
		return c.epoch.Load(), err
	}
	c.mu.Lock()
	idx := -1
	for i, ep := range c.endpoints {
		if ep.url == u {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return c.epoch.Load(), fmt.Errorf("%w: %s", ErrUnknownEndpoint, u)
	}
	ep := c.endpoints[idx]
	ep.draining.Store(true) // fence: no new sub-queries, even from maps resolved before the swap
	c.endpoints = append(c.endpoints[:idx:idx], c.endpoints[idx+1:]...)
	if m := c.mp.Load(); m != nil {
		c.lostCols = max(c.lostCols, m.cols)
	}
	c.refreshMapLocked()
	c.mu.Unlock()
	mDeregisters.Add(1)
	c.updateEndpointGauges()
	epoch = c.epoch.Load()
	// Its held connections close as this returns — after the drain, when
	// there is one: the idle ones at once, one still carrying a sub-query
	// once that is answered.
	defer ep.cl.Close()
	if !drain {
		c.cfg.Logf("coord: deregistered endpoint %s (no drain)", u)
		return epoch, nil
	}
	if err := c.awaitDrain(ctx, ep); err != nil {
		c.cfg.Logf("coord: deregistered endpoint %s at epoch %d, drain incomplete: %v", u, epoch, err)
		return epoch, err
	}
	c.cfg.Logf("coord: deregistered endpoint %s at epoch %d (drained)", u, epoch)
	return epoch, nil
}

// awaitDrain waits until ep has no in-flight sub-queries. It requires
// two consecutive zero observations one tick apart: a sub-query that
// resolved the pre-fence map but had not yet incremented the in-flight
// count cannot slip between a single check and the caller tearing the
// shard down.
func (c *Coordinator) awaitDrain(ctx context.Context, ep *endpoint) error {
	zeros := 0
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		if ep.inflight.Load() == 0 {
			if zeros++; zeros >= 2 {
				return nil
			}
		} else {
			zeros = 0
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain of %s: %d sub-queries still in flight: %w",
				ep.url, ep.inflight.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// SetEndpoints reconciles the fleet against urls — the SIGHUP "-shards
// re-read" path: URLs not yet in the fleet register, members not in
// urls deregister. Removed endpoints are fenced immediately but drained
// in the background (bounded by MaxTimeout): a signal handler has no
// caller to block on the wait. An empty or unparsable list changes
// nothing and errors — a truncated shards file must not empty a
// serving fleet.
func (c *Coordinator) SetEndpoints(urls []string) (added, removed []string, err error) {
	want := map[string]bool{}
	for _, u := range urls {
		nu, nerr := normalizeEndpoint(u)
		if nerr != nil {
			return nil, nil, nerr
		}
		want[nu] = true
	}
	if len(want) == 0 {
		return nil, nil, fmt.Errorf("coord: refusing to deregister every endpoint")
	}
	have := map[string]bool{}
	for _, ep := range c.memberSnapshot() {
		have[ep.url] = true
	}
	for u := range want {
		if !have[u] {
			if _, rerr := c.Register(u); rerr != nil {
				return added, removed, rerr
			}
			added = append(added, u)
		}
	}
	for u := range have {
		if !want[u] {
			removed = append(removed, u)
			go func(u string) {
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.MaxTimeout)
				defer cancel()
				c.Deregister(ctx, u, true) //nolint:errcheck // logged inside
			}(u)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed, nil
}

// Epoch reports the current shard-map epoch (0 before any map).
func (c *Coordinator) Epoch() int64 { return c.epoch.Load() }

// updateEndpointGauges recounts the fleet into the
// tabmine_coord_endpoints{healthy,probation,dead} gauges.
func (c *Coordinator) updateEndpointGauges() {
	var healthy, probation, dead int64
	for _, ep := range c.memberSnapshot() {
		switch ep.currentState() {
		case StateHealthy:
			healthy++
		case StateProbation:
			probation++
		default:
			dead++
		}
	}
	gHealthy.Set(healthy)
	gProbation.Set(probation)
	gDead.Set(dead)
}

// Close stops the prober and closes every connection held to a shard:
// the idle ones at once, one carrying a sub-query when it is answered.
// In-flight requests finish normally.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
		<-c.stopped
	}
	for _, ep := range c.memberSnapshot() {
		ep.cl.Close()
	}
}

// Handler exposes the route table (for tests via httptest).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Serve accepts connections on l until Shutdown.
func (c *Coordinator) Serve(l net.Listener) error { return c.hs.Serve(l) }

// Shutdown drains the HTTP server and stops the prober.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.hs.Shutdown(ctx)
	c.Close()
	return err
}

// Map returns the current shard map (nil before any shard answered).
func (c *Coordinator) currentMap() *shardMap { return c.mp.Load() }

// Ready reports whether the shard map covers the whole table and every
// range has at least one live endpoint.
func (c *Coordinator) Ready() bool {
	m := c.currentMap()
	if m == nil || !m.complete {
		return false
	}
	for _, r := range m.ranges {
		if len(liveEndpoints(r, 0)) == 0 {
			return false
		}
	}
	return true
}

// refreshMap rebuilds the shard map from the endpoints' latest
// /v1/shardinfo answers. Endpoints that never answered are left out;
// endpoints that answered once keep their last-known placement even
// while dead, so a dead shard's column range is still KNOWN — that is
// what lets a partial answer name exactly which columns are missing.
// An inconsistent fleet (mismatched sketch parameters or geometry)
// keeps the previous map and logs, rather than serving garbage merges.
func (c *Coordinator) refreshMap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshMapLocked()
}

// refreshMapLocked is refreshMap's body; c.mu must be held so that a
// membership change and its map rebuild are one atomic step.
func (c *Coordinator) refreshMapLocked() {
	type placed struct {
		ep   *endpoint
		info shardInfoSnapshot
	}
	var ps []placed
	for _, ep := range c.endpoints {
		if info, ok := ep.lastInfo(); ok {
			ps = append(ps, placed{ep, info})
		}
	}
	if len(ps) == 0 {
		return
	}
	first := ps[0].info
	m := &shardMap{
		rows: first.Rows, tileRows: first.TileRows, tileCols: first.TileCols,
		p: first.P, k: first.K, seed: first.Seed,
		clusters: first.Clusters,
	}
	groups := map[[2]int]*shardRange{}
	slots, queue := 0, 0 // the fleet edge admits what its endpoints do together
	for _, p := range ps {
		in := p.info
		if in.Rows != m.rows || in.TileRows != m.tileRows || in.TileCols != m.tileCols ||
			in.P != m.p || in.K != m.k || in.Seed != m.seed {
			c.cfg.Logf("coord: shard %s is not merge-compatible with %s (rows/tile/p/k/seed mismatch); keeping previous map",
				p.ep.url, ps[0].ep.url)
			return
		}
		if in.SubProtocol != server.SubFrameVersion {
			// Its sub-query routes would refuse every frame with a 400, which
			// would reach clients as if their queries were wrong.
			c.cfg.Logf("coord: shard %s is not merge-compatible: it speaks sub-query protocol %d, this coordinator %d; keeping previous map",
				p.ep.url, in.SubProtocol, server.SubFrameVersion)
			return
		}
		if in.BaseCol%m.tileCols != 0 {
			c.cfg.Logf("coord: shard %s base_col %d is not tile-aligned (tile_cols %d); keeping previous map",
				p.ep.url, in.BaseCol, m.tileCols)
			return
		}
		if in.Clusters < m.clusters {
			m.clusters = in.Clusters
		}
		key := [2]int{in.BaseCol, in.Cols}
		rng := groups[key]
		if rng == nil {
			rng = &shardRange{baseCol: in.BaseCol, cols: in.Cols}
			groups[key] = rng
			m.ranges = append(m.ranges, rng)
		}
		rng.endpoints = append(rng.endpoints, p.ep)
		slots, queue = slots+in.MaxInflight, queue+in.MaxQueue
		if end := in.BaseCol + in.Cols; end > m.cols {
			m.cols = end
		}
	}
	if old := c.mp.Load(); m.cols < c.lostCols && old != nil && old.rows == m.rows && old.tileRows == m.tileRows &&
		old.tileCols == m.tileCols && old.p == m.p && old.k == m.k && old.seed == m.seed {
		m.cols = c.lostCols
	} else {
		c.lostCols = 0 // served again, or another table
	}
	sort.Slice(m.ranges, func(i, j int) bool { return m.ranges[i].baseCol < m.ranges[j].baseCol })
	m.complete = true
	next := 0
	for _, r := range m.ranges {
		if r.baseCol != next {
			m.complete = false
			if r.baseCol > next {
				m.gaps = append(m.gaps, [2]int{next, r.baseCol})
			}
		}
		if end := r.baseCol + r.cols; end > next {
			next = end
		}
	}
	if next != m.cols {
		m.complete = false
		if next < m.cols {
			m.gaps = append(m.gaps, [2]int{next, m.cols})
		}
	}
	var err error
	if m.sdist, err = core.NewSketchDist(m.p, m.k); err != nil {
		c.cfg.Logf("coord: building estimator: %v", err)
		return
	}
	c.pipe.Resize(slots, queue)
	old := c.mp.Load()
	if old != nil && sameMap(old, m) {
		// Same routing state: keep the old map (and its estimator
		// scratch pool) instead of churning pointers every probe round.
		return
	}
	m.epoch = c.epoch.Add(1)
	c.mp.Store(m)
	mEpoch.Set(m.epoch)
	mMapReloads.Add(1)
	c.cfg.Logf("coord: shard map epoch %d: %d ranges over %dx%d cols, complete=%v",
		m.epoch, len(m.ranges), m.rows, m.cols, m.complete)
}

// sameMap reports whether b routes and merges exactly as a does: the
// geometry, the sketch parameters (a fleet restarted with another p
// needs another B(p); another k, frames of another width) and the ranges.
func sameMap(a, b *shardMap) bool {
	if a.rows != b.rows || a.cols != b.cols || a.tileRows != b.tileRows || a.tileCols != b.tileCols ||
		a.clusters != b.clusters || a.complete != b.complete ||
		a.p != b.p || a.k != b.k || a.seed != b.seed || len(a.ranges) != len(b.ranges) {
		return false
	}
	for i, r := range a.ranges {
		s := b.ranges[i]
		if r.baseCol != s.baseCol || r.cols != s.cols || len(r.endpoints) != len(s.endpoints) {
			return false
		}
		for j := range r.endpoints {
			if r.endpoints[j] != s.endpoints[j] {
				return false
			}
		}
	}
	return true
}

// liveEndpoints returns the range's selectable endpoints: healthy ones
// first (rotated by rot for load spread), probation ones after — they
// take traffic, but only as fallback while a healthy replica exists.
// Draining endpoints are never selectable: the flag is the deregister
// fence, and it must hold even for requests that resolved a shard map
// from before the membership change.
func liveEndpoints(r *shardRange, rot uint64) []*endpoint {
	var healthy, probation []*endpoint
	for _, ep := range r.endpoints {
		if ep.draining.Load() {
			continue
		}
		switch ep.currentState() {
		case StateHealthy:
			healthy = append(healthy, ep)
		case StateProbation:
			probation = append(probation, ep)
		}
	}
	if n := len(healthy); n > 1 {
		k := int(rot % uint64(n))
		healthy = append(healthy[k:len(healthy):len(healthy)], healthy[:k]...)
	}
	return append(healthy, probation...)
}
