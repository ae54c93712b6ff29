// Package client is the retrying counterpart of internal/server: a
// sketch-query client with jittered exponential backoff, a retry
// budget, and Retry-After handling, so callers ride out load shedding
// (503), deadline misses (504), and transient transport failures
// without hand-rolled loops — and without retry storms: every delay is
// jittered, and the total time spent waiting is capped.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/table"
)

// Config tunes the retry policy. The zero value (plus BaseURL) gets
// sensible defaults from New.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil builds a dedicated http.Client.
	HTTP *http.Client
	// MaxAttempts bounds tries per query, first included (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: the nth retry waits
	// about BaseDelay·2ⁿ, jittered to [½,1]× (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait (default 2s).
	MaxDelay time.Duration
	// Budget caps the total time spent waiting between retries across
	// one query — the retry budget (default 15s).
	Budget time.Duration
	// RetryAfterCap bounds how long a server Retry-After hint is
	// honored (default 5s).
	RetryAfterCap time.Duration
	// Seed drives the backoff jitter deterministically (0 means 1).
	Seed uint64
	// Sleep is the wait primitive, injectable for tests. nil sleeps on
	// a timer, returning early with ctx's error on cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// Logf receives operational warnings (e.g. an unparsable
	// Retry-After header); nil is silent.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.Budget <= 0 {
		c.Budget = 15 * time.Second
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrBudgetExhausted wraps the final attempt's error when the retry
// budget (attempts or waiting time) runs out. Check with errors.Is.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// mRetryAfterUnparsed counts Retry-After headers that were present but
// not parsable as non-negative integer seconds: the hint is ignored
// (plain backoff still applies) but silently dropping a malformed
// header across a whole fleet hides a server bug, so it is surfaced on
// /debug/vars of any process embedding this client.
var mRetryAfterUnparsed = expvar.NewInt("retry_after_unparsed")

// Client issues queries with retries. Safe for concurrent use.
type Client struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	// warnRetryAfter limits the unparsable-Retry-After log line to once
	// per client; the expvar counter keeps the full count.
	warnRetryAfter sync.Once

	frames *framePool // held connections of the shard sub-queries
}

// New builds a Client for cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL required")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad BaseURL: %w", err)
	}
	cfg.setDefaults()
	return &Client{
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, 0x636c69656e74)),
		frames: newFramePool(u),
	}, nil
}

// Close closes the connections the client holds for sub-queries: the
// idle ones now, one carrying a frame once the frame is done. A
// sub-query after Close still runs, on a connection closed after it.
func (c *Client) Close() { c.frames.closeIdle(true) }

// CloseIdle closes the held sub-query connections no frame is using.
func (c *Client) CloseIdle() { c.frames.closeIdle(false) }

// get runs one GET query through the retry loop and decodes its answer.
func get[T any](ctx context.Context, c *Client, path string, vals url.Values, mode string) (*T, error) {
	res := new(T)
	if err := c.do(ctx, path, vals, mode, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Distance queries /v1/distance for rectangles a and b. mode is one of
// server.ModeAuto/ModeExact/ModeSketch ("" means auto).
func (c *Client) Distance(ctx context.Context, a, b table.Rect, mode string) (*server.DistanceResult, error) {
	vals := url.Values{"a": {server.FormatRect(a)}, "b": {server.FormatRect(b)}}
	return get[server.DistanceResult](ctx, c, "/v1/distance", vals, mode)
}

// Nearest queries /v1/nearest for the grid tile closest to q.
func (c *Client) Nearest(ctx context.Context, q table.Rect, mode string) (*server.NearestResult, error) {
	return get[server.NearestResult](ctx, c, "/v1/nearest", url.Values{"q": {server.FormatRect(q)}}, mode)
}

// NearestPruned queries /v1/nearest in mode=prune. The answer is the
// exact nearest, which meets every (epsilon, delta), tagged "pruned". The
// knobs are validated by the server for wire compatibility and echoed in
// the prune block — pass a negative value to keep the server's default —
// and are scheduled to go with the mode.
func (c *Client) NearestPruned(ctx context.Context, q table.Rect, epsilon, delta float64) (*server.NearestResult, error) {
	return get[server.NearestResult](ctx, c, "/v1/nearest", pruneVals(q, epsilon, delta), server.ModePrune)
}

// AssignPruned queries /v1/assign in mode=prune (see NearestPruned).
func (c *Client) AssignPruned(ctx context.Context, q table.Rect, epsilon, delta float64) (*server.AssignResult, error) {
	return get[server.AssignResult](ctx, c, "/v1/assign", pruneVals(q, epsilon, delta), server.ModePrune)
}

func pruneVals(q table.Rect, epsilon, delta float64) url.Values {
	vals := url.Values{"q": {server.FormatRect(q)}}
	if epsilon >= 0 {
		vals.Set("epsilon", strconv.FormatFloat(epsilon, 'g', -1, 64))
	}
	if delta >= 0 {
		vals.Set("delta", strconv.FormatFloat(delta, 'g', -1, 64))
	}
	return vals
}

// Assign queries /v1/assign for q's cluster.
func (c *Client) Assign(ctx context.Context, q table.Rect, mode string) (*server.AssignResult, error) {
	return get[server.AssignResult](ctx, c, "/v1/assign", url.Values{"q": {server.FormatRect(q)}}, mode)
}

// Health queries /healthz (no retries beyond the shared policy).
func (c *Client) Health(ctx context.Context) (*server.Health, error) {
	return get[server.Health](ctx, c, "/healthz", url.Values{}, "")
}

// maxJSONAnswer bounds the JSON answers this client reads.
const maxJSONAnswer = 1 << 20

// reply is how an attempt reads a 200: at most limit bytes of body, then
// decode, which must not keep a reference to the bytes it is handed.
type reply struct {
	limit  int64
	decode func(body []byte) error
}

func jsonReply(out any) reply {
	return reply{limit: maxJSONAnswer, decode: func(body []byte) error { return json.Unmarshal(body, out) }}
}

// do runs the retry loop around one GET query.
func (c *Client) do(ctx context.Context, path string, vals url.Values, mode string, out any) error {
	if mode != "" {
		vals.Set("mode", mode)
	}
	u := c.cfg.BaseURL + path
	if enc := vals.Encode(); enc != "" {
		u += "?" + enc
	}
	return c.doRetry(ctx, u, nil, "", jsonReply(out))
}

// post runs the retry loop around one POST query: the body marshals
// once and is re-sent verbatim on every attempt.
func (c *Client) post(ctx context.Context, path string, reqBody, out any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("client: marshal request: %w", err)
	}
	return c.doRetry(ctx, c.cfg.BaseURL+path, body, "application/json", jsonReply(out))
}

// doRetry runs the retry loop around one HTTP query; body == nil issues
// GETs, non-nil issues POSTs of content type ctype. rp reads the answer.
func (c *Client) doRetry(ctx context.Context, u string, body []byte, ctype string, rp reply) error {
	return c.retry(ctx, func() (bool, error) { return c.attempt(ctx, u, body, ctype, rp) })
}

// retry is the shared retry loop around one attempt of a query, whatever
// carries it; attempt reports whether its failure can succeed on retry.
func (c *Client) retry(ctx context.Context, attempt func() (retryable bool, err error)) error {
	var waited time.Duration
	var lastErr error
	for n := 0; n < c.cfg.MaxAttempts; n++ {
		if n > 0 {
			delay := c.backoff(n, lastErr)
			if waited+delay > c.cfg.Budget {
				return fmt.Errorf("%w after %d attempts (%v waited): %w",
					ErrBudgetExhausted, n, waited, lastErr)
			}
			if err := c.cfg.Sleep(ctx, delay); err != nil {
				return fmt.Errorf("client: %w (last attempt: %w)", err, lastErr)
			}
			waited += delay
		}
		retryable, err := attempt()
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: %w (last attempt: %w)", ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("%w after %d attempts (%v waited): %w",
		ErrBudgetExhausted, c.cfg.MaxAttempts, waited, lastErr)
}

// StatusError is a non-2xx server answer. Callers that route around
// failures (the scatter-gather coordinator) use the code to separate
// endpoint trouble (5xx — strike the endpoint, try a replica) from
// query trouble (4xx — the query is wrong everywhere, fail fast).
// Retrieve it with errors.As; retry wrappers may bury it under
// ErrBudgetExhausted or a Retry-After carrier.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Code, e.Msg)
}

// retryAfterError carries a server Retry-After hint through the loop.
type retryAfterError struct {
	err  error
	hint time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// bodyPool recycles the buffers answers are read into; every decoder
// copies what it keeps.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// attempt performs one HTTP round trip (GET, or POST when reqBody is
// non-nil). retryable reports whether the failure class can succeed on
// retry (shed, timeout, transport, a damaged 200).
func (c *Client) attempt(ctx context.Context, u string, reqBody []byte, ctype string, rp reply) (retryable bool, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if reqBody != nil {
		method, rd = http.MethodPost, bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return false, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return true, err // transport errors (refused, reset) are retryable
	}
	defer resp.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	// One byte past the limit tells an answer that is too long from one
	// that was cut short.
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, rp.limit+1)); err != nil {
		return true, err
	}
	body := buf.Bytes()
	if resp.StatusCode == http.StatusOK && int64(len(body)) > rp.limit {
		// Re-asking gets the same answer: silently truncating it would
		// make a valid answer look damaged and burn every attempt on it.
		return false, &overLimitError{limit: rp.limit}
	}
	var hint time.Duration
	if retryableStatus(resp.StatusCode) {
		hint = c.parseRetryAfter(resp.Header.Get("Retry-After"))
	}
	return verdict(resp.StatusCode, hint, body, rp)
}

// retryableStatus reports the failure classes a retry can cure: shedding
// (503), deadline misses (504), rate limiting (429), and other transient
// 5xx (the flaky-nth-request fault). 4xx means the query itself is wrong.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// verdict reads one whole answer, whatever carried it: a 200's body
// through rp, any other status as a StatusError — retryable by its class,
// with hint as the server's Retry-After when it sent one.
func verdict(code int, hint time.Duration, body []byte, rp reply) (retryable bool, err error) {
	if code == http.StatusOK {
		if err := rp.decode(body); err != nil {
			// A 200 whose body does not decode is a response damaged in
			// transit — a connection reset mid-body or a truncating
			// middlebox — not a malformed query: the server committed to
			// an answer, so re-asking is safe and likely to succeed.
			// (Classifying this as permanent was a real availability bug:
			// one reset during the body failed queries that one retry
			// would have served.)
			return true, fmt.Errorf("client: undecodable 200 body (%d bytes): %w", len(body), err)
		}
		return false, nil
	}
	body = body[:min(int64(len(body)), rp.limit)]
	msg := string(body)
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	herr := error(&StatusError{Code: code, Msg: msg})
	if !retryableStatus(code) {
		return false, herr
	}
	if hint > 0 {
		return true, &retryAfterError{err: herr, hint: hint}
	}
	return true, herr
}

// backoff computes the jittered wait before retry n (1-based), honoring
// a server hint when one came with the last failure.
func (c *Client) backoff(n int, lastErr error) time.Duration {
	d := c.cfg.BaseDelay << (n - 1)
	if d > c.cfg.MaxDelay || d <= 0 {
		d = c.cfg.MaxDelay
	}
	// Equal jitter: [½,1]× spreads synchronized retriers while keeping
	// the wait long enough to matter.
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int64N(int64(d/2)+1))
	c.mu.Unlock()
	var rae *retryAfterError
	if errors.As(lastErr, &rae) {
		hint := min(rae.hint, c.cfg.RetryAfterCap)
		if hint > d {
			d = hint
		}
	}
	return d
}

// parseRetryAfter interprets a Retry-After header as integer seconds.
// A header that is present but unparsable is ignored — plain backoff
// still applies — but counted on the retry_after_unparsed expvar and
// logged once per client, so a misbehaving server surfaces instead of
// silently shortening every wait.
func (c *Client) parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	mRetryAfterUnparsed.Add(1)
	c.warnRetryAfter.Do(func() {
		c.cfg.Logf("client: ignoring unparsable Retry-After header %q", h)
	})
	return 0
}
