// Package server is the resilient sketch query service: an HTTP server
// answering distance / nearest-tile / cluster-assign queries against an
// immutable Snapshot (table + dyadic sketch pool), designed around the
// paper's operational premise that an approximate answer now beats an
// exact answer late.
//
// Robustness is the design center:
//
//   - Admission control: at most MaxInflight queries execute while at
//     most MaxQueue wait; beyond that the server sheds immediately with
//     503 + Retry-After (one second) instead of queueing unboundedly.
//   - Deadlines: every request carries a budget (DefaultTimeout or the
//     timeout_ms parameter, capped at maxTimeout) propagated as a
//     context into the parallel exact-computation paths.
//   - Graceful degradation: "auto" queries answer from O(k) compound
//     dyadic sketches — Theorem 6's 4(1+ε) tier — when the server is
//     saturated or the deadline budget cannot fit the exact path, and
//     every answer is tagged with the tier that produced it.
//   - Lifecycle: snapshots swap atomically (Swap, wired to SIGHUP by
//     tabmine-serve) and Shutdown drains in-flight requests.
//
// Answers are deterministic functions of (snapshot, query): the same
// query returns byte-identical bytes at any worker count, load level,
// or drain state.
package server

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxTimeout caps client-requested deadlines.
const maxTimeout = 30 * time.Second

// What no deployment tunes is a constant, the same on both fronts — a
// server's and a coordinator's (DESIGN.md §9): the batch bound
// (DefaultMaxBatch), the Retry-After hint of every 503 and the
// slow-client timeouts of NewFront.
const (
	// retryAfter is the Retry-After hint of every 503, in seconds.
	retryAfter = 1
	// ReadHeaderTimeout bounds how long a client takes to send a
	// request's header, and a held connection the rest of a frame after
	// its first byte.
	ReadHeaderTimeout = 10 * time.Second
	// writeSlack is how long past the longest request budget an answer
	// may take to write, so a query that spends its whole budget still
	// writes its 504.
	writeSlack = 10 * time.Second
)

// NewFront is the http.Server of a front around h, a server's or a
// coordinator's, whose longest request budget is maxBudget: a client
// sends its header within ReadHeaderTimeout, and an answer is written
// within writeSlack of that budget.
func NewFront(h http.Handler, maxBudget time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, WriteTimeout: maxBudget + writeSlack}
}

// SetRetryAfter puts the Retry-After hint of a 503 on h.
func SetRetryAfter(h http.Header) { h.Set("Retry-After", strconv.Itoa(retryAfter)) }

// Config tunes the serving policy. The zero value gets sensible
// defaults from New.
type Config struct {
	// MaxInflight bounds concurrently executing queries (default 8).
	MaxInflight int
	// MaxQueue bounds queries waiting for an execution slot; arrivals
	// beyond MaxInflight+MaxQueue shed with 503 (default 4×MaxInflight).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client sends
	// no timeout_ms parameter (default 2s).
	DefaultTimeout time.Duration
	// DegradeAt is the admission occupancy fraction — (executing +
	// queued) / (MaxInflight + MaxQueue) — at or above which "auto"
	// queries skip the exact path (default 0.75).
	DegradeAt float64
	// ExactBudget is the minimum remaining deadline for attempting the
	// exact path on an "auto" query (default 20ms).
	ExactBudget time.Duration
	// Workers bounds the parallel fan-out of exact computations per
	// request. 0 means all cores; answers are identical regardless.
	Workers int
	// Ingestor, when non-nil, enables POST /v1/ingest: pushed
	// day-column records stream to it and its backlog errors map to
	// 503 + Retry-After. Nil answers /v1/ingest with 404.
	Ingestor Ingestor
	// Hook, when non-nil, runs at the start of query execution (inside
	// the admission slot) with the operation name. A non-nil error
	// fails the request with 500. Tests wire it to faultinject (Gate
	// for deterministic saturation, FailNth for flaky requests); leave
	// nil in production.
	Hook func(op string) error
	// ItemHook, when non-nil, runs before each batch item executes with
	// the operation name and item index. A non-nil error fails that item
	// only, not the batch. Tests wire it to faultinject gates to freeze
	// a batch mid-flight deterministically; leave nil in production.
	ItemHook func(op string, item int) error
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 0.75
	}
	if c.ExactBudget <= 0 {
		c.ExactBudget = 20 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// snapState pairs a snapshot with its generation so one atomic load
// observes both: every handler resolves (snapshot, generation) exactly
// once per request, which is what lets sub-query answers echo a
// generation that is guaranteed to match the data they were computed
// from even while Swap runs concurrently.
type snapState struct {
	sn  *Snapshot
	gen int64
}

// Server serves sketch queries over one atomically swappable Snapshot.
type Server struct {
	cfg    Config
	snap   atomic.Pointer[snapState]
	swapMu sync.Mutex // serializes Swap's generation increment
	// snapRefMu orders snapshot retention against Swap: acquire retains
	// under RLock, Swap stores the new state under Lock before releasing
	// the old serving reference — so a request can never retain a
	// snapshot whose count already hit zero (whose mmap-backed lanes a
	// segment store may have unmapped).
	snapRefMu sync.RWMutex
	pipe      *Pipeline // admission and the error map of every query
	reloads   atomic.Int64
	// draining marks the lame-duck state: readiness is withdrawn (so
	// coordinators route away) but queries still answer — the handoff
	// window between "stop sending me new work" and process exit.
	draining atomic.Bool
	mux      *http.ServeMux
	hs       *http.Server // its timeouts are also a held frame's (conn.go)

	// held are the frame connections (conn.go), which http.Server stops
	// tracking once they upgrade; closing refuses new ones and tells the
	// held ones to close after their frame (Shutdown).
	heldMu  sync.Mutex
	held    map[*heldConn]struct{}
	closing bool
}

// New builds a Server answering from snap under cfg's policy. A nil
// snap is the booting state: the server binds and answers /healthz
// (status "booting") and /readyz (503) immediately, sheds every query
// with 503 + Retry-After, and starts serving at the first Swap/Publish —
// the store-mode boot sequence, where resuming the pool takes a while
// and a coordinator must be able to probe "not ready yet" cheaply.
func New(snap *Snapshot, cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{cfg: cfg, held: map[*heldConn]struct{}{}, pipe: NewPipeline(cfg, maxTimeout, Counters{
		Requests: mRequests, Served: mServed, Shed: mShed, TimedOut: mTimedOut, ItemErrors: mBatchItemErrors,
	})}
	if snap != nil {
		snap.Retain() // the serving reference, mirroring Swap
		s.snap.Store(&snapState{sn: snap, gen: 1})
	} else {
		s.snap.Store(&snapState{})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/debug/vars", expvar.Handler())
	scanNearest, scanAssign := s.itemScan(false), s.itemScan(true)
	s.mux.HandleFunc("/v1/distance", s.serve("distance", nil, s.decodeGet(s.itemDistance, false)))
	s.mux.HandleFunc("/v1/nearest", s.serve("nearest", nil, s.decodeGet(scanNearest, true)))
	s.mux.HandleFunc("/v1/assign", s.serve("assign", nil, s.decodeGet(scanAssign, true)))
	s.mux.HandleFunc("/v1/batch/distance", s.serve("batch/distance", mBatchRequests, s.decodeBatch(s.batchDistance, false)))
	s.mux.HandleFunc("/v1/batch/nearest", s.serve("batch/nearest", mBatchRequests, s.decodeBatch(s.batchEach("nearest", scanNearest), true)))
	s.mux.HandleFunc("/v1/batch/assign", s.serve("batch/assign", mBatchRequests, s.decodeBatch(s.batchEach("assign", scanAssign), true)))
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/shardinfo", s.handleShardInfo)
	s.mux.HandleFunc(SubUpgradePath, s.handleFrames)
	s.hs = NewFront(s.mux, maxTimeout)
	return s, nil
}

// Handler exposes the route table (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Swap atomically replaces the serving snapshot: requests already
// executing finish against the old one (they hold references), new
// requests see the new one. This is the SIGHUP hot-reload path. Each
// swap advances the snapshot generation echoed by /v1/shardinfo and the
// sketch sub-query answers. The server takes its own reference on snap
// (the caller keeps the one it holds) and drops the previous serving
// reference once the new state is published — a superseded snapshot's
// OnRelease closers run as soon as its last holder lets go. Swapping
// nil is ignored (the booting state is entered only at New).
func (s *Server) Swap(snap *Snapshot) {
	if snap == nil {
		s.cfg.Logf("server: ignoring nil snapshot swap")
		return
	}
	snap.Retain() // the serving reference; the caller's own ref is untouched
	s.swapMu.Lock()
	old := s.snap.Load()
	gen := old.gen + 1
	s.snapRefMu.Lock()
	s.snap.Store(&snapState{sn: snap, gen: gen})
	s.snapRefMu.Unlock()
	s.swapMu.Unlock()
	if old.sn != nil {
		old.sn.Release()
	}
	s.reloads.Add(1)
	mReloads.Add(1)
	s.cfg.Logf("server: snapshot swapped (%d tiles, %d clusters, generation %d)",
		snap.NumTiles(), snap.Clusters(), gen)
}

// current resolves the serving snapshot and its generation in one
// atomic load. sn is nil while the server is booting (New with a nil
// snapshot, before the first Swap). Only metadata endpoints (health,
// readiness) may use it — query paths must acquire, because a snapshot
// observed without a reference can lose its backing bytes to a
// concurrent Swap.
func (s *Server) current() (sn *Snapshot, gen int64) {
	st := s.snap.Load()
	return st.sn, st.gen
}

// acquire resolves the serving snapshot and takes a reference on it,
// returning the release the request must run when done. A nil snapshot
// (booting) returns a no-op release. The RLock makes retain atomic with
// respect to Swap's store-then-release, so the count cannot hit zero
// between the load and the Retain.
func (s *Server) acquire() (sn *Snapshot, gen int64, release func()) {
	s.snapRefMu.RLock()
	st := s.snap.Load()
	if st.sn != nil {
		st.sn.Retain()
	}
	s.snapRefMu.RUnlock()
	if st.sn == nil {
		return nil, st.gen, func() {}
	}
	return st.sn, st.gen, st.sn.Release
}

// Generation reports the current snapshot generation (0 while booting).
func (s *Server) Generation() int64 { return s.snap.Load().gen }

// Queued reports the weighted cost (single query = 1, batch = item
// count) waiting for an execution slot.
func (s *Server) Queued() int { return s.pipe.Queued() }

// Inflight reports how many requests hold execution slots.
func (s *Server) Inflight() int { return len(s.pipe.adm.Load().sem) }

// BeginDrain enters the lame-duck state: /readyz answers 503
// ("draining") and /v1/shardinfo reports not-ready, so health-checked
// routers and coordinator probes steer new traffic away, while every
// query endpoint keeps answering — in-flight and still-arriving work
// completes normally. The handoff sequence is BeginDrain, wait for the
// fleet to route around this server, then Shutdown. Idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.cfg.Logf("server: draining (lame duck): readiness withdrawn, queries still served")
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections on l until Shutdown (returning
// http.ErrServerClosed) or a listener error.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown drains the server: the listener closes immediately, in-flight
// requests run to completion (or until ctx expires), then Serve returns.
// Held frame connections close when idle, a frame in flight first
// answered, and Shutdown waits for them too.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if herr := s.closeHeld(ctx); err == nil {
		err = herr
	}
	return err
}

// tier resolves the effective (mode, reason) for one query at this
// instant: auto queries degrade to the sketch tier under saturation or
// a deadline too small for the exact path. Each batch item makes this
// decision independently (a distance batch in one pre-pass, items.go).
// Bumps the degraded counter.
func (s *Server) tier(ctx context.Context, mode string) (string, string) {
	reason := ""
	if mode == ModeAuto {
		// Tier choice: shed accuracy, not availability. Saturation
		// or a deadline too small for the exact path both route the
		// query to the O(k) sketch tier up front.
		if s.pipe.occupancy() >= s.cfg.DegradeAt {
			mode, reason = ModeSketch, ReasonLoad
		} else if dl, ok := ctx.Deadline(); ok && time.Until(dl) < s.cfg.ExactBudget {
			mode, reason = ModeSketch, ReasonDeadline
		}
	} else if mode == ModeSketch {
		reason = ReasonRequested
	}
	if reason == ReasonLoad || reason == ReasonDeadline {
		mDegraded.Add(1)
	}
	return mode, reason
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn, _ := s.current()
	if sn == nil {
		// Alive but not serving yet: /healthz answers 200 (the process is
		// healthy), /readyz answers 503 (do not route queries here).
		WriteJSON(w, http.StatusOK, &Health{Status: "booting"})
		return
	}
	WriteJSON(w, http.StatusOK, &Health{
		Status: "ok", Rows: sn.tb.Rows(), Cols: sn.tb.Cols(),
		Tiles: sn.NumTiles(), Clusters: sn.Clusters(),
		TileRows: sn.TileRows(), TileCols: sn.TileCols(),
		Reloads: s.reloads.Load(),
	})
}

// handleReadyz is the routing gate, distinct from the liveness probe:
// 200 exactly when a snapshot is being served. A store-mode server that
// is still resuming its pool answers 503 here, so a coordinator never
// routes a query to a booting shard.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sn, gen := s.current()
	if sn == nil {
		SetRetryAfter(w.Header())
		WriteJSON(w, http.StatusServiceUnavailable, &Ready{Status: "booting"})
		return
	}
	if s.Draining() {
		// Lame duck: still answering queries, but do not route new work
		// here — the 503 is what flips a coordinator's probes to failing.
		SetRetryAfter(w.Header())
		WriteJSON(w, http.StatusServiceUnavailable, &Ready{Status: "draining", Generation: gen})
		return
	}
	WriteJSON(w, http.StatusOK, &Ready{Status: "ready", Generation: gen})
}
