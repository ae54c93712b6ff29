package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/server"
)

// Shard sub-query surface: the client half of the scatter-gather
// protocol (see internal/server's frame connections). The coordinator
// calls Sub against individual shards; all rectangles and indices are in
// the target shard's LOCAL coordinates. The shared retry loop
// applies — shed sub-queries (503) back off and re-ask within the
// caller's context deadline.

// Sub sends q as one frame of op on a held connection and decodes the
// answer frame. timeout > 0 bounds the shard-side computation via
// timeout_ms (the coordinator carves these from its request budget). The
// shared retry loop runs around it, so a 200 whose frame is short,
// over-long or inconsistent with q re-asks exactly as an undecodable
// JSON 200 does, and the read limit is the one (n, k) implies.
func (c *Client) Sub(ctx context.Context, op server.SubOp, q *server.SubQuery, timeout time.Duration) (*server.SubAnswer, error) {
	var ms int32
	if timeout > 0 {
		ms = int32(min(max(int64(timeout/time.Millisecond), 1), math.MaxInt32))
	}
	req, err := q.AppendRequest(nil, op, ms)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var ans *server.SubAnswer
	rp := reply{
		limit: server.SubAnswerLimit(q),
		decode: func(body []byte) (err error) {
			ans, err = server.DecodeSubAnswer(body, q)
			return err
		},
	}
	err = c.retry(ctx, func() (bool, error) { return c.frameAttempt(ctx, req, rp) })
	return ans, err
}

// Ingest posts one record to POST /v1/ingest (a server's, or a
// coordinator's, which proxies to the shard owning the growing edge)
// through the shared retry loop with a narrower verdict: only a 503
// (backpressure — the server guarantees nothing was stored) retries,
// honoring Retry-After within MaxAttempts/Budget. A transport error, a
// timeout, any other status and a damaged 200 return after one attempt
// even though retrying might succeed, because the record MAY have been
// applied — replaying it would double-ingest, and deduplication is the
// caller's policy, not this client's.
func (c *Client) Ingest(ctx context.Context, record []byte) (*server.IngestResult, error) {
	if record == nil {
		record = []byte{} // attempt POSTs a non-nil body, even an empty one
	}
	var res server.IngestResult
	err := c.retry(ctx, func() (bool, error) {
		_, err := c.attempt(ctx, c.cfg.BaseURL+"/v1/ingest", record, "application/octet-stream", jsonReply(&res))
		var se *StatusError
		return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable, err
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}
