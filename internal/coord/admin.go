package coord

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"

	"repro/internal/server"
)

// Admin surface: fleet membership edits over HTTP, gated to loopback
// peers. The gate is deliberate minimalism — the coordinator binds on
// operator-controlled hosts and the admin verbs are operational, not
// user-facing, so "the caller is on this machine" is the authentication
// model (the same trust boundary as sending the process a signal).

// adminResult is the success body for both admin verbs.
type adminResult struct {
	Status   string `json:"status"`
	Endpoint string `json:"endpoint"`
	Epoch    int64  `json:"epoch"`
	Drained  bool   `json:"drained,omitempty"`
}

// isLoopbackAddr reports whether remoteAddr (host:port) is a loopback
// peer.
func isLoopbackAddr(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// adminGate enforces method and loopback origin for admin handlers.
// Returns false after writing the refusal.
func (c *Coordinator) adminGate(w http.ResponseWriter, r *http.Request) bool {
	if !isLoopbackAddr(r.RemoteAddr) {
		server.WriteError(w, http.StatusForbidden, "admin endpoints accept loopback connections only")
		return false
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	return true
}

// handleAdminRegister adds a shard endpoint to the fleet:
//
//	POST /admin/register
//	endpoint=http://127.0.0.1:7004
//
// The endpoint starts dead and earns traffic through probe/probation;
// the answer's epoch is the map epoch at return time.
func (c *Coordinator) handleAdminRegister(w http.ResponseWriter, r *http.Request) {
	if !c.adminGate(w, r) {
		return
	}
	u := r.FormValue("endpoint")
	if u == "" {
		server.WriteError(w, http.StatusBadRequest, "missing endpoint parameter")
		return
	}
	epoch, err := c.Register(u)
	switch {
	case errors.Is(err, ErrDuplicateEndpoint):
		server.WriteError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	nu, _ := normalizeEndpoint(u)
	server.WriteJSON(w, http.StatusOK, adminResult{Status: "registered", Endpoint: nu, Epoch: epoch})
}

// handleAdminDeregister removes a shard endpoint:
//
//	POST /admin/deregister
//	endpoint=http://127.0.0.1:7001&drain=true
//
// drain defaults to true: the call blocks (bounded by MaxTimeout)
// until the endpoint's in-flight sub-queries finish, so "deregister
// returned 200 with drained=true" means the shard process is safe to
// kill. A drain that times out still leaves the endpoint deregistered
// — the 504 body says so explicitly.
func (c *Coordinator) handleAdminDeregister(w http.ResponseWriter, r *http.Request) {
	if !c.adminGate(w, r) {
		return
	}
	u := r.FormValue("endpoint")
	if u == "" {
		server.WriteError(w, http.StatusBadRequest, "missing endpoint parameter")
		return
	}
	drain := true
	switch r.FormValue("drain") {
	case "", "true":
	case "false":
		drain = false
	default:
		server.WriteError(w, http.StatusBadRequest, "drain must be true or false")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.MaxTimeout)
	defer cancel()
	epoch, err := c.Deregister(ctx, u, drain)
	switch {
	case errors.Is(err, ErrUnknownEndpoint):
		server.WriteError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		server.WriteError(w, http.StatusGatewayTimeout,
			"deregistered at epoch "+strconv.FormatInt(epoch, 10)+" but drain incomplete: "+err.Error())
		return
	case err != nil:
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, adminResult{
		Status: "deregistered", Endpoint: mustNormalize(u), Epoch: epoch, Drained: drain,
	})
}

func mustNormalize(u string) string {
	nu, err := normalizeEndpoint(u)
	if err != nil {
		return u
	}
	return nu
}
