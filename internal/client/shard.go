package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/table"
)

// Shard sub-query surface: the client half of the scatter-gather
// protocol (see internal/server's /v1/shardinfo and /v1/sketch*
// endpoints). The coordinator calls these against individual shards;
// all rectangles and indices are in the target shard's LOCAL
// coordinates. The shared retry loop applies — shed sub-queries (503)
// back off and re-ask within the caller's context deadline.

// Ready queries /readyz: 200 once the server publishes its first
// snapshot, 503 while booting. The 503 is retryable under the shared
// policy, so a plain Ready call with a deadline doubles as "wait until
// ready"; probers that want a single un-retried probe should use
// MaxAttempts=1.
func (c *Client) Ready(ctx context.Context) (*server.Ready, error) {
	return get[server.Ready](ctx, c, "/readyz", url.Values{}, "")
}

// ShardInfo queries /v1/shardinfo: the shard's self-description
// (column placement, geometry, sketch parameters, snapshot generation).
func (c *Client) ShardInfo(ctx context.Context) (*server.ShardInfo, error) {
	return get[server.ShardInfo](ctx, c, "/v1/shardinfo", url.Values{}, "")
}

// subVals builds the query values shared by the sub-query endpoints:
// timeout > 0 bounds the shard-side computation via timeout_ms (the
// coordinator carves these from its request budget).
func subVals(timeout time.Duration) url.Values {
	vals := url.Values{}
	if timeout > 0 {
		ms := int(timeout / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		vals.Set("timeout_ms", strconv.Itoa(ms))
	}
	return vals
}

// Sketch queries GET /v1/sketch for the pool sketch of one rectangle in
// the shard's local coordinates.
func (c *Client) Sketch(ctx context.Context, rect table.Rect, timeout time.Duration) (*server.SketchResult, error) {
	vals := subVals(timeout)
	vals.Set("rect", server.FormatRect(rect))
	return get[server.SketchResult](ctx, c, "/v1/sketch", vals, "")
}

// SketchNearest posts a query sketch to /v1/sketch/nearest: the shard's
// best local tile under the O(k) estimator.
func (c *Client) SketchNearest(ctx context.Context, req *server.SketchQueryRequest, timeout time.Duration) (*server.SketchBest, error) {
	return c.postSketchQuery(ctx, "/v1/sketch/nearest", req, timeout)
}

// SketchAssign posts a query sketch to /v1/sketch/assign: the shard's
// best local medoid under the O(k) estimator.
func (c *Client) SketchAssign(ctx context.Context, req *server.SketchQueryRequest, timeout time.Duration) (*server.SketchBest, error) {
	return c.postSketchQuery(ctx, "/v1/sketch/assign", req, timeout)
}

func (c *Client) postSketchQuery(ctx context.Context, path string, req *server.SketchQueryRequest, timeout time.Duration) (*server.SketchBest, error) {
	if enc := subVals(timeout).Encode(); enc != "" {
		path += "?" + enc
	}
	var res server.SketchBest
	if err := c.post(ctx, path, req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Ingest posts one record to POST /v1/ingest (a server's, or a
// coordinator's, which proxies to the shard owning the growing edge).
// Its retry policy is deliberately narrower than the shared loop: only
// a 503 (backpressure — the server guarantees nothing was stored)
// retries, honoring Retry-After within MaxAttempts/Budget. A transport
// error or timeout returns immediately even though retrying might
// succeed, because the record MAY have been applied — replaying it
// would double-ingest, and deduplication is the caller's policy, not
// this client's.
func (c *Client) Ingest(ctx context.Context, record []byte) (*server.IngestResult, error) {
	u := c.cfg.BaseURL + "/v1/ingest"
	var waited time.Duration
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt, lastErr)
			if waited+delay > c.cfg.Budget {
				return nil, fmt.Errorf("%w after %d attempts (%v waited): %w",
					ErrBudgetExhausted, attempt, waited, lastErr)
			}
			if err := c.cfg.Sleep(ctx, delay); err != nil {
				return nil, fmt.Errorf("client: %w (last attempt: %w)", err, lastErr)
			}
			waited += delay
		}
		res, err := c.ingestOnce(ctx, u, record)
		if err == nil {
			return res, nil
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			return nil, err // ambiguous or permanent: caller owns the resend decision
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w after %d attempts (%v waited): %w",
		ErrBudgetExhausted, c.cfg.MaxAttempts, waited, lastErr)
}

func (c *Client) ingestOnce(ctx context.Context, u string, record []byte) (*server.IngestResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(record))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: ingest transport: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("client: ingest response: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		var res server.IngestResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("client: undecodable ingest 200 body (%d bytes): %w", len(body), err)
		}
		return &res, nil
	}
	msg := string(body)
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	herr := &StatusError{Code: resp.StatusCode, Msg: msg}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if ra := c.parseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
			return nil, &retryAfterError{err: herr, hint: ra}
		}
	}
	return nil, herr
}
