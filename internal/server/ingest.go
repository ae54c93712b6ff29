package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/tabstore"
)

// Publisher receives freshly built immutable snapshots from a streaming
// ingestion pipeline. Server implements it: Publish is the programmatic
// twin of the SIGHUP hot-reload path — an atomic swap with no signal,
// no restart, and no effect on queries already executing against the
// previous generation.
type Publisher interface {
	Publish(*Snapshot)
}

// Publish atomically replaces the serving snapshot. It is Swap under
// the name the ingestion layer's Publisher contract uses; both count as
// reloads on /healthz and /debug/vars.
func (s *Server) Publish(snap *Snapshot) { s.Swap(snap) }

// ErrIngestBacklog reports that the ingestion pipeline's bounded
// pending-append queue is full: the record was NOT durably accepted and
// the client should retry after a pause. The /v1/ingest handler maps it
// to 503 + Retry-After, the same shedding contract the query admission
// path uses.
var ErrIngestBacklog = errors.New("ingest backlog full")

// Ingestor consumes one pushed day-column record (the tabmine-ingest
// wire format: a label line followed by a TABF table) from a request
// body. Implementations must be safe for concurrent use; internal/
// ingest serializes appends behind its own mutex. An error wrapping
// ErrIngestBacklog means "durably rejected, retry later"; one wrapping
// tabstore.ErrManifestChanged means another writer holds the store (409);
// any other error means the record was malformed or ingestion has shut
// down.
type Ingestor interface {
	IngestRecord(ctx context.Context, body io.Reader) (*IngestResult, error)
}

// IngestResult answers a successful POST /v1/ingest.
type IngestResult struct {
	Label     string `json:"label"`      // day label the record was stored under
	Cols      int    `json:"cols"`       // columns in this record
	ColsTotal int    `json:"cols_total"` // store columns after the append
	Pending   int    `json:"pending"`    // days appended but not yet in the served snapshot
}

// handleIngest is the push half of streaming ingestion: POST a record
// in the tabmine-ingest wire format and it lands durably in the
// tabstore before the response, with the sketch pool and snapshot
// catching up asynchronously. Backlog shedding answers 503 +
// Retry-After without touching disk, so a client retry loop is safe.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Ingestor == nil {
		WriteError(w, http.StatusNotFound, "ingestion not enabled")
		return
	}
	mIngest.Add(1)
	res, err := s.cfg.Ingestor.IngestRecord(r.Context(), r.Body)
	if err != nil {
		switch {
		case errors.Is(err, ErrIngestBacklog):
			mIngestShed.Add(1)
			SetRetryAfter(w.Header())
			WriteError(w, http.StatusServiceUnavailable, err.Error())
		case isDeadline(err):
			mIngestErrors.Add(1)
			WriteError(w, http.StatusGatewayTimeout, "deadline expired during ingest")
		case errors.Is(err, tabstore.ErrManifestChanged):
			// Another process wrote the store; retrying cannot succeed
			// until a restart adopts its days.
			mIngestErrors.Add(1)
			WriteError(w, http.StatusConflict, fmt.Sprintf("ingest: %v", err))
		default:
			mIngestErrors.Add(1)
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("ingest: %v", err))
		}
		return
	}
	mIngestAccepted.Add(1)
	WriteJSON(w, http.StatusOK, res)
}
