package coord

import (
	"context"
	"expvar"
	"fmt"
	"net/http"
	"strconv"

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
	mux.HandleFunc("/v1/distance", c.pipe.Serve("distance", nil, c.decode(c.planDistance, false)))
	mux.HandleFunc("/v1/nearest", c.pipe.Serve("nearest", nil, c.decode(nearest, false)))
	mux.HandleFunc("/v1/assign", c.pipe.Serve("assign", nil, c.decode(assign, false)))
	mux.HandleFunc("/v1/batch/distance", c.pipe.Serve("batch/distance", nil, c.decode(c.planDistance, true)))
	mux.HandleFunc("/v1/batch/nearest", c.pipe.Serve("batch/nearest", nil, c.decode(nearest, true)))
	mux.HandleFunc("/v1/batch/assign", c.pipe.Serve("batch/assign", nil, c.decode(assign, true)))
	mux.HandleFunc("/v1/ingest", c.handleIngest)
	mux.HandleFunc("/admin/register", c.handleAdminRegister)
	mux.HandleFunc("/admin/deregister", c.handleAdminDeregister)
	c.mux = mux
	c.hs = server.NewFront(mux, c.cfg.MaxTimeout)
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

// decode is the fleet decoder of a query route, single (the URL is the
// one item) or batch (the body carries the items, mode and timeout; the
// URL still carries partial=, and mode= when the body names none): it
// resolves the shard map and reads the request once, before admission.
// A batch keeps the server's wire contract — items answer independently,
// one bad item never fails its batch, and an item's bytes are the bytes
// of the same query sent alone — while the fleet sees the request, not
// its items. A batch is bounded as a server bounds it, since a shard
// takes no more than that many items in a frame.
func (c *Coordinator) decode(plan planFunc, batch bool) server.Decoder {
	return func(w http.ResponseWriter, r *http.Request) (server.Request, error) {
		m := c.currentMap()
		if m == nil {
			return server.Request{}, server.Unavailable("no shard has reported yet, retry later")
		}
		w.Header().Set(epochHeader, strconv.FormatInt(m.epoch, 10))
		vals := r.URL.Query()
		modeText, timeoutMS := vals.Get("mode"), 0
		items := []server.BatchItem{{A: vals.Get("a"), B: vals.Get("b"), Q: vals.Get("q")}}
		if batch {
			body, err := server.DecodeBatch(w, r)
			if err != nil {
				return server.Request{}, err
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
			return server.Request{}, err
		}
		return server.Request{TimeoutMS: timeoutMS, Weight: len(items), Batch: batch, Run: c.answer(plan, m, items, mode, allowPartial, batch)}, nil
	}
}

// answer is a request's run: one plan over its items.
func (c *Coordinator) answer(plan planFunc, m *shardMap, items []server.BatchItem, mode string, allowPartial, batch bool) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		outs := plan(ctx, m, items, mode, allowPartial)
		if o := outs[0]; !batch {
			if o.err == nil && o.partial {
				mPartial.Add(1)
			}
			return o.res, o.err
		}
		resp := server.NewBatchResponse(len(items))
		for i, o := range outs {
			if c.pipe.Item(resp, i, o.res, o.degraded, o.err) && o.partial {
				mPartial.Add(1)
			}
		}
		return resp, nil
	}
}

func (c *Coordinator) writeUnavailable(w http.ResponseWriter, msg string) {
	mUnavailable.Add(1)
	server.SetRetryAfter(w.Header())
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
// whole table and every range has a live endpoint. The 503 says booting
// while no shard has reported, and degraded, as /healthz does, once a
// map exists with a gap or a range without a live endpoint.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	epoch := c.epoch.Load()
	w.Header().Set(epochHeader, strconv.FormatInt(epoch, 10))
	if !c.Ready() {
		status := "degraded"
		if c.currentMap() == nil {
			status = "booting"
		}
		server.SetRetryAfter(w.Header())
		server.WriteJSON(w, http.StatusServiceUnavailable, &server.Ready{Status: status, Epoch: epoch})
		return
	}
	server.WriteJSON(w, http.StatusOK, &server.Ready{Status: "ready", Epoch: epoch})
}
