package coord

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/server"
)

// handleIngest proxies POST /v1/ingest to the shard owning the
// rightmost column band — the time axis grows at the right edge, so
// that shard is where new records land and the fleet ingests like a
// single server. The proxy is deliberately dumb about failure:
//
//   - shard 503 (backpressure) relays verbatim, Retry-After included,
//     and does NOT strike the endpoint's health — a full WAL is load,
//     not death, and ejecting a shard for it would turn backpressure
//     into an outage;
//   - a transport error answers 502 with no failover and no retry: the
//     record may or may not have been applied, and replaying it at a
//     replica could double-ingest. Only a relayed 503 guarantees
//     nothing was stored; the pusher owns resending after anything
//     else, exactly as it does talking to a shard directly.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	m := c.currentMap()
	if m == nil || len(m.ranges) == 0 {
		c.writeUnavailable(w, "no shard has reported yet, retry later")
		return
	}
	w.Header().Set(epochHeader, fmt.Sprint(m.epoch))
	rng := m.ranges[len(m.ranges)-1] // rightmost band owns the growing edge
	eps := liveEndpoints(rng, c.rr.Add(1))
	if len(eps) == 0 {
		c.writeUnavailable(w, noEndpoints(rng).Error())
		return
	}
	ep := eps[0]
	ep.inflight.Add(1) // drain covers in-flight ingests too
	defer ep.inflight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.MaxTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.url+"/v1/ingest", r.Body)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.ContentLength = r.ContentLength
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	mIngestProxied.Add(1)
	resp, err := c.ingestHTTP.Do(req)
	if err != nil {
		c.noteFailure(ep, false)
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("ingest proxy to %s: %v", ep.url, err))
		return
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client went away; nothing to do
}
