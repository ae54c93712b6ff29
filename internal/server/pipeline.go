package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// The request pipeline (DESIGN.md §9). Every query — single GET, batch
// POST, shard sub-query frame — is run around one decoder, and run is the
// only code that counts a request, holds a snapshot reference, sets the
// deadline, passes admission, runs the fault hook and maps an error to a
// status. A decoder resolves and validates everything the request says —
// method, body shape and size, timeout_ms, mode, ε / δ, batch size, a
// sub-query frame's op, header, length, lanes and rectangles — against
// the snapshot, so a request wrong in itself is refused before it can
// take a slot or be shed. Two thin writers carry the outcome: an HTTP
// response (serve, the routes' handler), or an answer envelope on a held
// frame connection (conn.go).

// request is what a decoder makes of one query: every knob resolved,
// nothing computed yet.
type request struct {
	timeoutMS int  // the client's timeout_ms, 0 when it sent none
	weight    int  // admission weight: the item count
	batch     bool // items are served, failed and counted one by one
	// items, when non-nil, counts the weight of the request once admitted.
	items *expvar.Int
	// run answers the request inside its admission slot: a value to send
	// as JSON, or a sub-query answer frame.
	run func(ctx context.Context) (any, error)
	// release, when non-nil, runs when serve is done with the request,
	// admitted or not: it returns what the decoder took from a pool.
	release func()
}

// decoder turns an HTTP request into a request value against the
// snapshot (and its generation) the answer will be computed from.
type decoder func(w http.ResponseWriter, r *http.Request, sn *Snapshot, gen int64) (request, error)

// answerTo is where run sends one query's outcome: an HTTP response
// (w), or the answer envelope on a held frame connection (f).
type answerTo struct {
	w http.ResponseWriter
	f *frameOut
}

// serve is an HTTP route around decode. op is the name Config.Hook sees;
// kind, when non-nil, counts the route's request family beside
// tabmine_requests_total.
func (s *Server) serve(op string, kind *expvar.Int, decode decoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.run(r.Context(), op, kind, answerTo{w: w}, func(sn *Snapshot, gen int64) (request, error) {
			return decode(w, r, sn, gen)
		})
	}
}

// run is the admission-to-answer path of one query whatever carried it:
// decode reads the query against the snapshot it resolves.
func (s *Server) run(parent context.Context, op string, kind *expvar.Int, out answerTo, decode func(sn *Snapshot, gen int64) (request, error)) {
	mRequests.Add(1)
	if kind != nil {
		kind.Add(1)
	}
	sn, gen, releaseSnap := s.acquire()
	defer releaseSnap()
	if sn == nil {
		// Booting is shed like saturation — 503 + Retry-After — so the
		// retrying client and the coordinator back off and re-ask.
		mShed.Add(1)
		s.fail(out, http.StatusServiceUnavailable, "no snapshot published yet, retry later")
		return
	}
	rq, err := decode(sn, gen)
	if err != nil {
		s.failure(out, err)
		return
	}
	if rq.release != nil {
		defer rq.release()
	}
	ctx, cancel := context.WithTimeout(parent, Budget(rq.timeoutMS, s.cfg.DefaultTimeout, maxTimeout))
	defer cancel()

	release, status := s.admit(ctx, rq.weight)
	switch status {
	case admitShed:
		mShed.Add(1)
		s.fail(out, http.StatusServiceUnavailable, "server saturated, retry later")
		return
	case admitTimeout:
		mTimedOut.Add(1)
		s.fail(out, http.StatusGatewayTimeout, "deadline expired while queued")
		return
	}
	defer release()

	if s.cfg.Hook != nil {
		if err := s.cfg.Hook(op); err != nil {
			s.fail(out, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if rq.items != nil {
		rq.items.Add(int64(rq.weight))
	}
	res, err := rq.run(ctx)
	if err != nil {
		s.failure(out, err)
		return
	}
	if !rq.batch {
		mServed.Add(1)
	}
	if out.f != nil {
		out.f.put(http.StatusOK, 0, res.(*frameBuf))
		return
	}
	WriteJSON(out.w, http.StatusOK, res)
}

// ErrBatchMethod refuses a batch route asked with another method than
// POST; the error text is the wire text. It is exported for the
// coordinator, whose batch routes share DecodeBatch.
var ErrBatchMethod = errors.New("batch endpoints accept POST only")

// failure maps a decode or run error to its status: a frame past the
// protocol's bounds closes its connection unanswered, wrong method 405, an
// expired deadline 504, assign on a snapshot without clusters 404,
// anything else is the request's own fault, 400.
func (s *Server) failure(out answerTo, err error) {
	switch {
	case out.f != nil && errors.Is(err, errSever):
		out.f.sever = true
	case errors.Is(err, ErrBatchMethod):
		s.fail(out, http.StatusMethodNotAllowed, err.Error())
	case isDeadline(err):
		mTimedOut.Add(1)
		s.fail(out, http.StatusGatewayTimeout, "deadline expired mid-computation")
	case errors.Is(err, errNoClusters):
		s.fail(out, http.StatusNotFound, err.Error())
	default:
		s.fail(out, http.StatusBadRequest, err.Error())
	}
}

// fail answers code with the errorBody of msg. A 503 carries the
// Retry-After hint, and on HTTP a 405 names the method it allows.
func (s *Server) fail(out answerTo, code int, msg string) {
	if out.f != nil {
		retryAfter := 0
		if code == http.StatusServiceUnavailable {
			retryAfter = retryAfterSecs(s.cfg.RetryAfter)
		}
		out.f.put(code, retryAfter, errorFrame(msg))
		return
	}
	switch code {
	case http.StatusServiceUnavailable:
		out.w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
	case http.StatusMethodNotAllowed:
		out.w.Header().Set("Allow", http.MethodPost)
	}
	WriteError(out.w, code, msg)
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// ParseTimeoutMS parses the timeout_ms URL parameter; "" (none sent) is 0.
func ParseTimeoutMS(text string) (int, error) {
	if text == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(text)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad timeout_ms %q", text)
	}
	return v, nil
}

// Budget is a request's deadline budget: its timeout_ms capped at max,
// or def when it sent none (ms == 0).
func Budget(ms int, def, max time.Duration) time.Duration {
	if ms == 0 {
		return def
	}
	return min(time.Duration(ms)*time.Millisecond, max)
}

// ParseMode validates an accuracy mode; "" selects ModeAuto.
func ParseMode(mode string) (string, error) {
	switch mode {
	case "":
		return ModeAuto, nil
	case ModeAuto, ModeExact, ModeSketch, ModePrune:
		return mode, nil
	}
	return "", fmt.Errorf("bad mode %q", mode)
}

// Default knobs of mode=prune, echoed in its prune block when the client
// sends no epsilon / delta parameter.
const (
	DefaultPruneEpsilon = 0.1
	DefaultPruneDelta   = 0.05
)

// knobs are a query request's accuracy knobs, validated: the mode, and
// for ModePrune the ε / δ its answer echoes.
type knobs struct {
	mode           string
	epsilon, delta float64
}

// resolveKnobs validates mode and, in ModePrune, the ε / δ knobs — as
// the texts the URL carries them in ("" = default); a batch body's
// numbers come through floatText. prunable is false on the distance
// routes, which have no candidates to prune.
func resolveKnobs(prunable bool, mode, epsilon, delta string) (knobs, error) {
	mode, err := ParseMode(mode)
	if err != nil || mode != ModePrune {
		return knobs{mode: mode}, err
	}
	if !prunable {
		return knobs{}, fmt.Errorf("mode %q is not supported for distance queries (nearest and assign only)", ModePrune)
	}
	kn := knobs{mode: mode, epsilon: DefaultPruneEpsilon, delta: DefaultPruneDelta}
	if epsilon != "" {
		f, err := strconv.ParseFloat(epsilon, 64)
		if err != nil || !(f >= 0 && f <= math.MaxFloat64) { // "Inf" parses; no body can carry it
			return knobs{}, fmt.Errorf("bad epsilon %q (want a number ≥ 0)", epsilon)
		}
		kn.epsilon = f
	}
	if delta != "" {
		f, err := strconv.ParseFloat(delta, 64)
		if err != nil || !(f > 0) || f >= 1 {
			return knobs{}, fmt.Errorf("bad delta %q (want a number in (0, 1))", delta)
		}
		kn.delta = f
	}
	return kn, nil
}

// floatText renders an optional JSON number as the URL would carry it.
func floatText(f *float64) string {
	if f == nil {
		return ""
	}
	return strconv.FormatFloat(*f, 'g', -1, 64)
}

// itemFunc answers one query item: it parses the item's rectangles,
// picks the tier at that instant and runs the scan. degraded reports an
// auto query answered from sketches for load or deadline.
type itemFunc func(ctx context.Context, sn *Snapshot, it BatchItem, kn knobs) (res any, degraded bool, err error)

// decodeGet decodes a single query from the URL: the item runner on one
// item, its error the request's error.
func (s *Server) decodeGet(item itemFunc, prunable bool) decoder {
	return func(_ http.ResponseWriter, r *http.Request, sn *Snapshot, _ int64) (request, error) {
		vals := r.URL.Query()
		ms, err := ParseTimeoutMS(vals.Get("timeout_ms"))
		if err != nil {
			return request{}, err
		}
		kn, err := resolveKnobs(prunable, vals.Get("mode"), vals.Get("epsilon"), vals.Get("delta"))
		if err != nil {
			return request{}, err
		}
		it := BatchItem{A: vals.Get("a"), B: vals.Get("b"), Q: vals.Get("q")}
		return request{timeoutMS: ms, weight: 1, run: func(ctx context.Context) (any, error) {
			res, _, err := item(ctx, sn, it, kn)
			return res, err
		}}, nil
	}
}

// maxBatchBody bounds a batch request body; at MaxBatch=256 a full
// batch is a few KiB, so 8 MiB is generous headroom for large MaxBatch
// configurations without letting a client buffer arbitrary input.
const maxBatchBody = 8 << 20

// DefaultMaxBatch is the item bound of a batch request: Config.MaxBatch
// when unset, and the coordinator's bound.
const DefaultMaxBatch = 256

// DecodeBatch reads the body of a POST /v1/batch/* request and refuses
// what is wrong with the batch as a whole: the method (ErrBatchMethod),
// a body that is oversize or not a BatchRequest, no items, more than
// maxItems, a negative timeout.
func DecodeBatch(w http.ResponseWriter, r *http.Request, maxItems int) (*BatchRequest, error) {
	if r.Method != http.MethodPost {
		return nil, ErrBatchMethod
	}
	req, err := decodeBatchBody(w, r, maxItems)
	if err != nil {
		return nil, fmt.Errorf("bad batch body: %v", err)
	}
	switch n := len(req.Items); {
	case n == 0:
		return nil, errors.New("empty batch")
	case n > maxItems:
		return nil, fmt.Errorf("batch of %d items exceeds the %d-item limit", n, maxItems)
	case req.TimeoutMS < 0:
		return nil, fmt.Errorf("bad timeout_ms %d", req.TimeoutMS)
	}
	return req, nil
}

// decodeBatch decodes a batch: mode, timeout and the prune knobs resolve
// once for every item, admission weighs the item count, and run answers
// the items into a BatchResponse — an item's error is that item's
// errorBody, never the batch's status.
func (s *Server) decodeBatch(run func(ctx context.Context, sn *Snapshot, kn knobs, items []BatchItem) *BatchResponse, prunable bool) decoder {
	return func(w http.ResponseWriter, r *http.Request, sn *Snapshot, _ int64) (request, error) {
		req, err := DecodeBatch(w, r, s.cfg.MaxBatch)
		if err != nil {
			return request{}, err
		}
		kn, err := resolveKnobs(prunable, req.Mode, floatText(req.Epsilon), floatText(req.Delta))
		if err != nil {
			return request{}, err
		}
		return request{timeoutMS: req.TimeoutMS, weight: len(req.Items), batch: true, items: mBatchItems, run: func(ctx context.Context) (any, error) {
			return run(ctx, sn, kn, req.Items), nil
		}}, nil
	}
}
