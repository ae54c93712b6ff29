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
	mux.HandleFunc("/v1/distance", c.handle(c.itemDistance, false))
	mux.HandleFunc("/v1/nearest", c.handle(c.itemScan(false), false))
	mux.HandleFunc("/v1/assign", c.handle(c.itemScan(true), false))
	mux.HandleFunc("/v1/batch/distance", c.handle(c.itemDistance, true))
	mux.HandleFunc("/v1/batch/nearest", c.handle(c.itemScan(false), true))
	mux.HandleFunc("/v1/batch/assign", c.handle(c.itemScan(true), true))
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

// itemFunc answers one query item (single or batch member) against a
// consistent shard map.
type itemFunc func(ctx context.Context, m *shardMap, it server.BatchItem, mode string, allowPartial bool) (answer, error)

func (c *Coordinator) itemDistance(ctx context.Context, m *shardMap, it server.BatchItem, mode string, allowPartial bool) (answer, error) {
	a, err := server.ParseRect(it.A)
	if err != nil {
		return answer{}, err
	}
	b, err := server.ParseRect(it.B)
	if err != nil {
		return answer{}, err
	}
	return c.opDistance(ctx, m, a, b, mode, allowPartial)
}

// itemScan is the nearest (assign == false) or assign item function.
func (c *Coordinator) itemScan(assign bool) itemFunc {
	return func(ctx context.Context, m *shardMap, it server.BatchItem, mode string, allowPartial bool) (answer, error) {
		q, err := server.ParseRect(it.Q)
		if err != nil {
			return answer{}, err
		}
		return c.opScan(ctx, m, q, mode, allowPartial, assign)
	}
}

// parseMode validates the mode parameter. mode=prune is shard-local
// state (per-shard checkpoint plans over per-shard tile sets) and is
// rejected here rather than half-answered.
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
// carries partial=, and mode= when the body names none). A batch keeps
// the server's wire contract — items answer independently, one bad item
// never fails its batch — with each item running the full scatter-gather
// merge. Items run sequentially: each already fans out over every
// shard, so batch-level parallelism would multiply fleet load without
// improving tail latency; and a batch is bounded as a server bounds it,
// since nothing downstream admits it as a whole.
func (c *Coordinator) handle(fn itemFunc, batch bool) http.HandlerFunc {
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
		var items []server.BatchItem
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

		if !batch {
			ans, err := fn(ctx, m, server.BatchItem{A: vals.Get("a"), B: vals.Get("b"), Q: vals.Get("q")}, mode, allowPartial)
			if err != nil {
				c.writeQueryError(w, err)
				return
			}
			countServed(ans)
			server.WriteJSON(w, http.StatusOK, ans.res)
			return
		}
		resp := server.NewBatchResponse(len(items))
		for i, it := range items {
			ans, err := fn(ctx, m, it, mode, allowPartial)
			msg := ""
			if err != nil {
				msg = err.Error()
				if isDeadline(err) {
					msg = "deadline expired mid-merge"
				}
			}
			if resp.Put(i, ans.res, ans.degraded, msg) {
				countServed(ans)
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
	w.Header().Set("Retry-After", server.RetryAfterSeconds(c.cfg.RetryAfter))
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
		w.Header().Set("Retry-After", server.RetryAfterSeconds(c.cfg.RetryAfter))
		server.WriteJSON(w, http.StatusServiceUnavailable, &server.Ready{Status: "booting", Epoch: epoch})
		return
	}
	server.WriteJSON(w, http.StatusOK, &server.Ready{Status: "ready", Epoch: epoch})
}
