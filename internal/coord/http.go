package coord

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/client"
	"repro/internal/server"
)

// HTTP surface: the same /v1/* routes as a single server, so clients
// (and tabmine-replay) point at a coordinator without changes. New
// query parameter: partial=allow|deny overrides the fleet default for
// one request.

// epochHeader carries the shard-map epoch on every coordinator answer
// (success or error). It is a header, not a body field, on purpose:
// answer bodies must stay deterministic functions of (snapshot, query)
// — a co-resident exact distance through the coordinator is
// byte-identical to the shard's own answer — and the epoch is a
// property of the fleet, not of the data.
const epochHeader = "X-Tabmine-Epoch"

func (c *Coordinator) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.Handle("/debug/vars", expvar.Handler())
	nearest, assign := c.planScan(false), c.planScan(true)
	mux.HandleFunc("/v1/distance", c.handle(c.planDistance, false))
	mux.HandleFunc("/v1/nearest", c.handle(nearest, false))
	mux.HandleFunc("/v1/assign", c.handle(assign, false))
	mux.HandleFunc("/v1/batch/distance", c.handle(c.planDistance, true))
	mux.HandleFunc("/v1/batch/nearest", c.handle(nearest, true))
	mux.HandleFunc("/v1/batch/assign", c.handle(assign, true))
	mux.HandleFunc("/v1/ingest", c.handleIngest)
	mux.HandleFunc("/admin/register", c.handleAdminRegister)
	mux.HandleFunc("/admin/deregister", c.handleAdminDeregister)
	c.mux = mux
	c.hs = &http.Server{Handler: mux}
}

// answer is one merged result with the flags the handler counts by:
// partial (unreachable shards were left out) and degraded (partial, or
// the proxied shard's own load / deadline degradation).
type answer struct {
	res               any
	partial, degraded bool
}

// planFunc answers the items of one request — a single GET is one item
// — against a consistent shard map: out[i] is item i's answer or its
// error. It plans the request, not the item: what the items need from a
// shard travels in one sub-request (merge.go).
type planFunc func(ctx context.Context, m *shardMap, items []server.BatchItem, mode string, allowPartial bool) []outcome

// parseMode validates the mode parameter. mode=prune runs a shard's
// exact engine over its own table, which no merge of per-shard answers
// reproduces, and is rejected here rather than half-answered.
func parseMode(mode string) (string, error) {
	mode, err := server.ParseMode(mode)
	if mode == server.ModePrune {
		return "", fmt.Errorf("mode=prune is shard-local; query a shard directly")
	}
	return mode, err
}

// parsePartial resolves the per-request partial knob against the
// configured default.
func (c *Coordinator) parsePartial(partial string) (allow bool, err error) {
	switch partial {
	case "":
		return !c.cfg.PartialDeny, nil
	case "allow":
		return true, nil
	case "deny":
		return false, nil
	}
	return false, fmt.Errorf("bad partial %q (want allow or deny)", partial)
}

// handle answers a query route, single (the URL is the one item) or
// batch (the body carries the items, mode and timeout; the URL still
// carries partial=, and mode= when the body names none), through one
// plan over the request's items. A batch keeps the server's wire
// contract — items answer independently, one bad item never fails its
// batch, and an item's bytes are the bytes of the same query sent alone
// — while the fleet sees the request, not its items, wherever the plan
// merges sketches: those sub-queries go out as one frame a shard. Items
// the plan relays whole — a co-resident distance (proxyDistance) and a
// scan of a single-range fleet (proxyScan) — still cost one HTTP
// sub-request each. A batch is bounded as a server bounds it, since
// nothing downstream admits it as a whole and a shard takes no more than
// that many items in a frame.
func (c *Coordinator) handle(plan planFunc, batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Add(1)
		m := c.currentMap()
		if m == nil {
			c.writeUnavailable(w, "no shard has reported yet, retry later")
			return
		}
		w.Header().Set(epochHeader, strconv.FormatInt(m.epoch, 10))
		vals := r.URL.Query()
		modeText, timeoutMS := vals.Get("mode"), 0
		items := []server.BatchItem{{A: vals.Get("a"), B: vals.Get("b"), Q: vals.Get("q")}}
		if batch {
			body, err := server.DecodeBatch(w, r, server.DefaultMaxBatch)
			if err != nil {
				c.writeQueryError(w, err)
				return
			}
			items, timeoutMS = body.Items, body.TimeoutMS
			if body.Mode != "" {
				modeText = body.Mode
			}
		}
		mode, err := parseMode(modeText)
		var allowPartial bool
		if err == nil {
			allowPartial, err = c.parsePartial(vals.Get("partial"))
		}
		if err == nil && !batch {
			timeoutMS, err = server.ParseTimeoutMS(vals.Get("timeout_ms"))
		}
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), server.Budget(timeoutMS, c.cfg.DefaultTimeout, c.cfg.MaxTimeout))
		defer cancel()

		outs := plan(ctx, m, items, mode, allowPartial)
		if !batch {
			if err := outs[0].err; err != nil {
				c.writeQueryError(w, err)
				return
			}
			countServed(outs[0].ans)
			server.WriteJSON(w, http.StatusOK, outs[0].ans.res)
			return
		}
		resp := server.NewBatchResponse(len(items))
		for i, o := range outs {
			msg := ""
			if o.err != nil {
				msg = o.err.Error()
				if isDeadline(o.err) {
					msg = "deadline expired mid-merge"
				}
			}
			if resp.Put(i, o.ans.res, o.ans.degraded, msg) {
				countServed(o.ans)
			}
		}
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

func countServed(ans answer) {
	mServed.Add(1)
	if ans.partial {
		mPartial.Add(1)
	}
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// writeQueryError maps merge-layer errors onto the wire: fleet
// unavailability is 503 + Retry-After (retry can succeed), shard 4xx
// answers pass through with their original status, deadline expiry is
// 504, a batch sent with the wrong method 405, anything else is the
// caller's 400.
func (c *Coordinator) writeQueryError(w http.ResponseWriter, err error) {
	var unav *errUnavailable
	var noEp *errNoEndpoints
	var nf *errNotFound
	var se *client.StatusError
	switch {
	case errors.As(err, &unav), errors.As(err, &noEp):
		c.writeUnavailable(w, err.Error())
	case errors.As(err, &nf):
		server.WriteError(w, http.StatusNotFound, nf.msg)
	case errors.As(err, &se):
		server.WriteError(w, se.Code, se.Msg)
	case isDeadline(err):
		server.WriteError(w, http.StatusGatewayTimeout, "deadline expired mid-merge")
	case errors.Is(err, server.ErrBatchMethod):
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, err.Error())
	default:
		server.WriteError(w, http.StatusBadRequest, err.Error())
	}
}

func (c *Coordinator) writeUnavailable(w http.ResponseWriter, msg string) {
	mUnavailable.Add(1)
	w.Header().Set("Retry-After", server.RetryAfterSeconds(retryAfter))
	server.WriteError(w, http.StatusServiceUnavailable, msg)
}

// handleHealthz reports the GLOBAL geometry — the whole table's
// dimensions and tile grid — so load generators aimed at a coordinator
// synthesize queries over the full column space exactly as they would
// against an unsharded server.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := c.currentMap()
	if m == nil {
		server.WriteJSON(w, http.StatusOK, &server.Health{Status: "booting"})
		return
	}
	w.Header().Set(epochHeader, strconv.FormatInt(m.epoch, 10))
	status := "ok"
	if !c.Ready() {
		status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, &server.Health{
		Status: status, Rows: m.rows, Cols: m.cols,
		Tiles: m.gridRows() * m.gridCols(), Clusters: m.clusters,
		TileRows: m.tileRows, TileCols: m.tileCols,
		Reloads: mMapReloads.Value(),
		Epoch:   m.epoch,
	})
}

// handleReadyz gates routing: 200 only when the shard map covers the
// whole table and every range has a live endpoint.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	epoch := c.epoch.Load()
	w.Header().Set(epochHeader, strconv.FormatInt(epoch, 10))
	if !c.Ready() {
		w.Header().Set("Retry-After", server.RetryAfterSeconds(retryAfter))
		server.WriteJSON(w, http.StatusServiceUnavailable, &server.Ready{Status: "booting", Epoch: epoch})
		return
	}
	server.WriteJSON(w, http.StatusOK, &server.Ready{Status: "ready", Epoch: epoch})
}
