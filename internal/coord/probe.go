package coord

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// Endpoint health: active probing with consecutive-failure ejection and
// probation re-entry.
//
//	healthy --EjectAfter consecutive failures--> dead
//	dead ----ReadmitAfter consecutive probe OKs--> probation
//	probation --ReadmitAfter more probe OKs--> healthy
//	probation --any failure--> dead
//
// Failures are probe failures AND passive sub-query failures from the
// serving path (a shard that answers probes but times out real queries
// must still get ejected). Only probes count toward re-admission: a
// dead endpoint receives no traffic, so probes are its only way back.

// shardInfoSnapshot is the part of a shard's self-description the
// coordinator keeps per endpoint (flattened from server.ShardInfo).
type shardInfoSnapshot struct {
	BaseCol, Cols, Rows          int
	TileRows, TileCols, Clusters int
	P                            float64
	K                            int
	Seed                         uint64
	Generation                   int64
	SubProtocol                  int
	MaxInflight, MaxQueue        int
}

// endpoint is one shard server address plus its health bookkeeping.
type endpoint struct {
	url string
	cl  *client.Client // retrying sub-query client

	// draining is the deregister fence: once set, liveEndpoints never
	// selects this endpoint again, even for requests still holding a
	// shard map from before the membership change. inflight counts
	// launched sub-queries (and proxied ingests) so Deregister can wait
	// for the tail to finish before the shard is torn down.
	draining atomic.Bool
	inflight atomic.Int64

	mu      sync.Mutex
	state   State
	fails   int // consecutive failures (healthy state)
	oks     int // consecutive probe successes (dead/probation states)
	info    shardInfoSnapshot
	hasInfo bool
}

func (ep *endpoint) currentState() State {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.state
}

func (ep *endpoint) lastInfo() (shardInfoSnapshot, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.info, ep.hasInfo
}

func (ep *endpoint) setInfo(in *server.ShardInfo) {
	ep.mu.Lock()
	ep.info = shardInfoSnapshot{
		BaseCol: in.BaseCol, Cols: in.Cols, Rows: in.Rows,
		TileRows: in.TileRows, TileCols: in.TileCols, Clusters: in.Clusters,
		P: in.P, K: in.K, Seed: in.Seed,
		Generation: in.Generation, SubProtocol: in.SubProtocol,
		MaxInflight: in.MaxInflight, MaxQueue: in.MaxQueue,
	}
	ep.hasInfo = true
	ep.mu.Unlock()
}

// noteFailure records one failure (probe or passive) and applies the
// ejection rules. boot relaxes nothing — it only suppresses the
// state-change log during New's synchronous first round.
func (c *Coordinator) noteFailure(ep *endpoint, boot bool) {
	ep.mu.Lock()
	from := ep.state
	to := from
	switch ep.state {
	case StateHealthy:
		ep.fails++
		if ep.fails >= c.cfg.EjectAfter {
			to = StateDead
		}
	case StateProbation:
		// One strike: probation exists to catch flapping processes
		// before they re-earn full trust.
		to = StateDead
	case StateDead:
		ep.oks = 0
	}
	if to != from {
		ep.state = to
		ep.fails, ep.oks = 0, 0
	}
	ep.mu.Unlock()
	if to != from {
		// Whatever killed the endpoint may have taken its held
		// connections along; re-admission dials fresh ones.
		ep.cl.CloseIdle()
		mEjections.Add(1)
		if !boot {
			c.cfg.Logf("coord: endpoint %s: %v -> %v", ep.url, from, to)
		}
		if c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(ep.url, from, to)
		}
	}
}

// noteProbeOK records one successful probe and applies the
// re-admission rules.
func (c *Coordinator) noteProbeOK(ep *endpoint, boot bool) {
	ep.mu.Lock()
	from := ep.state
	to := from
	switch ep.state {
	case StateHealthy:
		ep.fails = 0
	case StateDead:
		ep.oks++
		if boot || ep.oks >= c.cfg.ReadmitAfter {
			// At boot one good probe admits straight to healthy: there
			// is no failure history to be suspicious of.
			to = StateProbation
			if boot {
				to = StateHealthy
			}
		}
	case StateProbation:
		ep.oks++
		if ep.oks >= c.cfg.ReadmitAfter {
			to = StateHealthy
		}
	}
	if to != from {
		ep.state = to
		ep.fails, ep.oks = 0, 0
	}
	ep.mu.Unlock()
	if to != from {
		if from == StateDead {
			mReadmits.Add(1)
		}
		if !boot {
			c.cfg.Logf("coord: endpoint %s: %v -> %v", ep.url, from, to)
		}
		if c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(ep.url, from, to)
		}
	}
}

func (c *Coordinator) probeLoop() {
	defer close(c.stopped)
	// Jittered probe period: each wait draws from [0.9, 1.1)×ProbeInterval
	// so multiple coordinators fronting one fleet spread their probe
	// storms instead of locking step. Seeded PCG keeps one coordinator's
	// schedule deterministic and testable.
	rng := rand.New(rand.NewPCG(c.cfg.JitterSeed, 0x70726f6265)) // "probe"
	t := time.NewTimer(jitteredInterval(c.cfg.ProbeInterval, rng))
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.probeKick:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		}
		c.probeRound(false)
		t.Reset(jitteredInterval(c.cfg.ProbeInterval, rng))
	}
}

// jitteredInterval draws one probe wait from [0.9, 1.1)×base.
func jitteredInterval(base time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(base) * (0.9 + 0.2*rng.Float64()))
}

// kickProbe nudges the prober to run a round now (registration wants
// the newcomer probed immediately, not after a probe period). Non-
// blocking: a kick while one is pending is already covered.
func (c *Coordinator) kickProbe() {
	select {
	case c.probeKick <- struct{}{}:
	default:
	}
}

// probeRound probes every endpoint concurrently, updates health states,
// and refreshes the shard map from the latest self-descriptions.
func (c *Coordinator) probeRound(boot bool) {
	var wg sync.WaitGroup
	for _, ep := range c.memberSnapshot() {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			if c.probeOne(ep) {
				c.noteProbeOK(ep, boot)
			} else {
				c.noteFailure(ep, boot)
			}
		}(ep)
	}
	wg.Wait()
	c.refreshMap()
	c.updateEndpointGauges()
}

// probeOne is a single un-retried health check, one GET /v1/shardinfo:
// its ready is the routing gate — false exactly when the shard's /readyz
// answers 503, booting (a store-mode shard still resuming its pool) or
// draining — and the rest refreshes the endpoint's placement, catching
// base_col movement (sliding-window trims) and snapshot generation
// changes. Uses a direct http.Client, not the retrying one: a probe that
// retries masks exactly the flakiness it exists to detect.
func (c *Coordinator) probeOne(ep *endpoint) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.url+"/v1/shardinfo", nil)
	if err != nil {
		return false
	}
	resp, err := c.probeHTTP.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var info server.ShardInfo
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &info) != nil || !info.Ready {
		return false
	}
	ep.setInfo(&info)
	return true
}

// noEndpoints reports a range with no live replica — the trigger for
// partial answers (allow) or 503 (deny).
func noEndpoints(rng *shardRange) error {
	return unavailablef("no live endpoint for shard %s", rng)
}

// isEndpointFault reports whether a sub-query error indicts the
// endpoint (transport trouble, 5xx, exhausted retries, damaged bodies)
// rather than the query itself (4xx — wrong everywhere, striking the
// endpoint for it would eject healthy shards on client mistakes).
func isEndpointFault(err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500 || se.Code == http.StatusTooManyRequests
	}
	return true
}

// subRequest sends rng one frame of op's items — everything one hop of
// one client request has for that range and op — to the live endpoints
// of rng with straggler hedging: the first endpoint gets HedgeDelay to
// answer before the same frame fires at the next replica; first success
// wins, a failure fails over immediately, and losers are cancelled. A
// SubWhole frame on the exact or auto tier runs a batch's exact scans,
// longer than HedgeDelay by design, so it fails over on error only.
// Passive failures strike the failing endpoint's health, and an answer
// for another column placement than the map's is fenced. The ctx should
// already carry the sub-query deadline (subDeadline).
func (c *Coordinator) subRequest(ctx context.Context, rng *shardRange, op server.SubOp, q *server.SubQuery, timeout time.Duration) (*server.SubAnswer, error) {
	eps := liveEndpoints(rng, c.rr.Add(1))
	if len(eps) == 0 {
		return nil, noEndpoints(rng)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		v     *server.SubAnswer
		err   error
		ep    *endpoint
		hedge bool
	}
	ch := make(chan result, len(eps))
	next, inflight := 0, 0
	launch := func(hedge bool) {
		ep := eps[next]
		next++
		inflight++
		mShardRequests.Add(ep.url, 1)
		ep.inflight.Add(1) // drain accounting; decremented when the frame returns
		go func() {
			v, err := ep.cl.Sub(cctx, op, q, timeout)
			if err == nil && v.BaseCol != rng.baseCol {
				v, err = nil, staleBase(ep.url, v.BaseCol, rng)
			}
			ep.inflight.Add(-1)
			ch <- result{v, err, ep, hedge}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if len(eps) > 1 && (op != server.SubWhole || q.Mode == server.ModeSketch) {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					mHedgeWins.Add(1)
				}
				return r.v, nil
			}
			if cctx.Err() != nil {
				// The request deadline (or a won race) cancelled this
				// sub-query; the error says nothing about the endpoint.
				return nil, ctx.Err()
			}
			mShardFailures.Add(r.ep.url, 1)
			if isEndpointFault(r.err) {
				c.noteFailure(r.ep, false)
			} else {
				return nil, r.err // query error: same answer everywhere
			}
			lastErr = r.err
			if next < len(eps) {
				launch(false) // immediate failover, not a hedge
			} else if inflight == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(eps) {
				mHedges.Add(1)
				launch(true)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// subDeadline derives the context and server-side timeout for one
// sub-query: the remaining request budget minus MergeReserve, so the
// coordinator keeps enough of the budget to merge and answer even when
// a shard eats its whole slice.
func (c *Coordinator) subDeadline(ctx context.Context) (context.Context, context.CancelFunc, time.Duration) {
	dl, ok := ctx.Deadline()
	if !ok {
		sub, cancel := context.WithCancel(ctx)
		return sub, cancel, 0
	}
	budget := time.Until(dl) - c.cfg.MergeReserve
	if budget < time.Millisecond {
		budget = time.Millisecond
	}
	sub, cancel := context.WithTimeout(ctx, budget)
	return sub, cancel, budget
}
