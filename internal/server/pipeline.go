package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The request pipeline (DESIGN.md §9). Every query — single GET, batch
// POST, shard sub-query frame, a coordinator's routes — is run around one
// decoder, and run is the only code that counts a request, sets the
// deadline, passes admission, runs the fault hook and maps an error to a
// status. A decoder validates everything the request says — method, body
// shape and size, timeout_ms, mode, ε / δ, batch size, a sub-query
// frame's op, header, length, lanes and rectangles — against what the
// answer will be computed from (a snapshot, a shard map), so a request
// wrong in itself is refused before it can take a slot or be shed. Two
// thin writers carry the outcome: an HTTP response, or an answer envelope
// on a held frame connection (conn.go).

// Request is what a decoder makes of one query: every knob resolved,
// nothing computed yet.
type Request struct {
	TimeoutMS int  // the client's timeout_ms, 0 when it sent none
	Weight    int  // admission weight: the item count
	Batch     bool // items are served, failed and counted one by one (Item)
	// Items, when non-nil, counts the weight of the request once admitted.
	Items *expvar.Int
	// Run answers the request inside its admission slot: a value to send
	// as JSON, or a sub-query answer frame.
	Run func(ctx context.Context) (any, error)
	// Release, when non-nil, runs when the pipeline is done with the
	// request, admitted or not.
	Release func()
}

// Decoder turns an HTTP request into a Request.
type Decoder func(w http.ResponseWriter, r *http.Request) (Request, error)

// Counters are the expvars a pipeline advances, a server's or a
// coordinator's: arrivals, answers (a batch's item by item), 503s, 504s
// (and expired batch items) and, when set, failed batch items.
type Counters struct {
	Requests, Served, Shed, TimedOut, ItemErrors *expvar.Int
}

// Pipeline is one process front's path from arrival to answer: at most
// MaxInflight queries execute while at most MaxQueue weight waits.
type Pipeline struct {
	cfg        Config // DefaultTimeout, Hook
	maxTimeout time.Duration
	c          Counters

	adm atomic.Pointer[admission] // the sizes, which Resize replaces
	// Admission pressure is tracked as weighted cost: a single query
	// weighs 1, a batch weighs its item count. queuedCost is the summed
	// weight waiting for a slot (bounded by MaxQueue), inflightCost the
	// summed weight currently executing.
	queuedCost   atomic.Int64
	inflightCost atomic.Int64
}

// admission is a pipeline's sizes: sem's capacity is MaxInflight, queue
// is MaxQueue.
type admission struct {
	sem   chan struct{}
	queue int64
}

// NewPipeline is a pipeline of cfg's admission sizes, DefaultTimeout and
// Hook (defaulted as New defaults them), deadlines capped at maxTimeout.
func NewPipeline(cfg Config, maxTimeout time.Duration, c Counters) *Pipeline {
	cfg.setDefaults()
	p := &Pipeline{cfg: cfg, maxTimeout: maxTimeout, c: c}
	p.Resize(cfg.MaxInflight, cfg.MaxQueue)
	return p
}

// Resize sets the admission sizes, defaulted as New defaults them: a
// coordinator's follow what its shards admit. A query admitted before
// keeps its slot, and one queued before waits for a slot of the sizes it
// queued under.
func (p *Pipeline) Resize(slots, queue int) {
	cfg := Config{MaxInflight: slots, MaxQueue: queue}
	cfg.setDefaults()
	if a := p.adm.Load(); a == nil || cap(a.sem) != cfg.MaxInflight || a.queue != int64(cfg.MaxQueue) {
		p.adm.Store(&admission{sem: make(chan struct{}, cfg.MaxInflight), queue: int64(cfg.MaxQueue)})
	}
}

// HTTPError is an error that answers with its own status and text.
type HTTPError struct {
	Code int
	Msg  string
}

func (e *HTTPError) Error() string { return e.Msg }

// Unavailable is the refusal of a query that retrying later can serve:
// 503 + Retry-After, counted as a shed.
func Unavailable(msg string) error {
	return &HTTPError{Code: http.StatusServiceUnavailable, Msg: msg}
}

// answerTo is where run sends one query's outcome: an HTTP response
// (w), or the answer envelope on a held frame connection (f).
type answerTo struct {
	w http.ResponseWriter
	f *frameOut
}

// Serve is an HTTP route around decode. op is the name Config.Hook sees;
// kind, when non-nil, counts the route's request family beside Requests.
func (p *Pipeline) Serve(op string, kind *expvar.Int, decode Decoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p.run(r.Context(), op, kind, answerTo{w: w}, func() (Request, error) { return decode(w, r) })
	}
}

// run is the admission-to-answer path of one query whatever carried it.
func (p *Pipeline) run(parent context.Context, op string, kind *expvar.Int, out answerTo, decode func() (Request, error)) {
	p.c.Requests.Add(1)
	if kind != nil {
		kind.Add(1)
	}
	rq, err := decode()
	if err != nil {
		p.failure(out, err)
		return
	}
	if rq.Release != nil {
		defer rq.Release()
	}
	ctx, cancel := context.WithTimeout(parent, Budget(rq.TimeoutMS, p.cfg.DefaultTimeout, p.maxTimeout))
	defer cancel()

	release, err := p.admit(ctx, rq.Weight)
	if err != nil {
		p.failure(out, err)
		return
	}
	defer release()

	if p.cfg.Hook != nil {
		if err := p.cfg.Hook(op); err != nil {
			p.fail(out, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if rq.Items != nil {
		rq.Items.Add(int64(rq.Weight))
	}
	res, err := rq.Run(ctx)
	if err != nil {
		p.failure(out, err)
		return
	}
	if !rq.Batch {
		p.c.Served.Add(1)
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

// DeadlineText is the error of a query or batch item whose deadline
// expired while it ran.
const DeadlineText = "deadline expired mid-computation"

// itemText is the text of a failed batch item's error: an expired
// deadline's is DeadlineText, counted as timed out.
func (p *Pipeline) itemText(err error) string {
	if isDeadline(err) {
		p.c.TimedOut.Add(1)
		return DeadlineText
	}
	return err.Error()
}

// failure is the one error map: a frame past the protocol's bounds
// closes its connection unanswered, wrong method 405, an expired deadline
// 504, an HTTPError its own status (a 503 counted as a shed, a 504 as
// timed out), anything else is the request's own fault, 400.
func (p *Pipeline) failure(out answerTo, err error) {
	var he *HTTPError
	switch {
	case out.f != nil && errors.Is(err, errSever):
		out.f.sever = true
	case errors.Is(err, ErrBatchMethod):
		p.fail(out, http.StatusMethodNotAllowed, err.Error())
	case isDeadline(err):
		p.failure(out, &HTTPError{Code: http.StatusGatewayTimeout, Msg: DeadlineText})
	case errors.As(err, &he):
		switch he.Code {
		case http.StatusServiceUnavailable:
			p.c.Shed.Add(1)
		case http.StatusGatewayTimeout:
			p.c.TimedOut.Add(1)
		}
		p.fail(out, he.Code, he.Msg)
	default:
		p.fail(out, http.StatusBadRequest, err.Error())
	}
}

// fail answers code with the errorBody of msg. A 503 carries the
// Retry-After hint, and on HTTP a 405 names the method it allows.
func (p *Pipeline) fail(out answerTo, code int, msg string) {
	if out.f != nil {
		hint := 0
		if code == http.StatusServiceUnavailable {
			hint = retryAfter
		}
		out.f.put(code, hint, errorFrame(msg))
		return
	}
	switch code {
	case http.StatusServiceUnavailable:
		SetRetryAfter(out.w.Header())
	case http.StatusMethodNotAllowed:
		out.w.Header().Set("Allow", http.MethodPost)
	}
	WriteError(out.w, code, msg)
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Admission's refusals: the queue is full, or the deadline expired in it.
var (
	errShed   = Unavailable("server saturated, retry later")
	errQueued = &HTTPError{Code: http.StatusGatewayTimeout, Msg: "deadline expired while queued"}
)

// admit acquires an execution slot, waiting in the bounded queue when
// all slots are busy, and returns its release. weight is the admission
// cost of the request (1 for single queries, the item count for
// batches): the queue sheds when its summed waiting weight would exceed
// MaxQueue, so a batch of N passes admission once but costs what N
// queued singles would.
func (p *Pipeline) admit(ctx context.Context, weight int) (func(), error) {
	w, a := int64(weight), p.adm.Load()
	release := func() {
		p.inflightCost.Add(-w)
		<-a.sem
	}
	select {
	case a.sem <- struct{}{}:
		p.inflightCost.Add(w)
		return release, nil
	default:
	}
	if p.queuedCost.Add(w) > a.queue {
		p.queuedCost.Add(-w)
		return nil, errShed
	}
	defer p.queuedCost.Add(-w)
	select {
	case a.sem <- struct{}{}:
		p.inflightCost.Add(w)
		return release, nil
	case <-ctx.Done():
		return nil, errQueued
	}
}

// occupancy is the admission-pressure fraction driving load-based
// degradation: summed executing + queued weight over total capacity.
// For weight-1 traffic this is exactly (inflight + queued) / (slots +
// queue); an inflight batch raises it by its item count, so concurrent
// auto queries see the batch's true cost.
func (p *Pipeline) occupancy() float64 {
	used, a := p.inflightCost.Load()+p.queuedCost.Load(), p.adm.Load()
	return float64(used) / float64(int64(cap(a.sem))+a.queue)
}

// Queued reports the weighted cost (single query = 1, batch = item
// count) waiting for an execution slot.
func (p *Pipeline) Queued() int { return int(p.queuedCost.Load()) }

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

// decoder is a server route's decoder: it reads the request against the
// snapshot (and its generation) the answer will be computed from.
type decoder func(w http.ResponseWriter, r *http.Request, sn *Snapshot, gen int64) (Request, error)

// serve is a server route around decode.
func (s *Server) serve(op string, kind *expvar.Int, decode decoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.run(r.Context(), op, kind, answerTo{w: w}, func(sn *Snapshot, gen int64) (Request, error) {
			return decode(w, r, sn, gen)
		})
	}
}

// run is the pipeline around decode, which reads the query against the
// serving snapshot: the request holds a reference on it until its answer
// is written. Booting is unavailable — 503 + Retry-After, counted as a
// shed — so the retrying client and the coordinator back off and re-ask.
func (s *Server) run(ctx context.Context, op string, kind *expvar.Int, out answerTo, decode func(sn *Snapshot, gen int64) (Request, error)) {
	sn, gen, release := s.acquire()
	defer release()
	s.pipe.run(ctx, op, kind, out, func() (Request, error) {
		if sn == nil {
			return Request{}, Unavailable("no snapshot published yet, retry later")
		}
		return decode(sn, gen)
	})
}

// decodeGet decodes a single query from the URL: the item runner on one
// item, its error the request's error.
func (s *Server) decodeGet(item itemFunc, prunable bool) decoder {
	return func(_ http.ResponseWriter, r *http.Request, sn *Snapshot, _ int64) (Request, error) {
		vals := r.URL.Query()
		ms, err := ParseTimeoutMS(vals.Get("timeout_ms"))
		if err != nil {
			return Request{}, err
		}
		kn, err := resolveKnobs(prunable, vals.Get("mode"), vals.Get("epsilon"), vals.Get("delta"))
		if err != nil {
			return Request{}, err
		}
		it := BatchItem{A: vals.Get("a"), B: vals.Get("b"), Q: vals.Get("q")}
		return Request{TimeoutMS: ms, Weight: 1, Run: func(ctx context.Context) (any, error) {
			res, _, err := item(ctx, sn, it, kn)
			return res, err
		}}, nil
	}
}

// maxBatchBody bounds a batch request body; a full batch of
// DefaultMaxBatch items is a few KiB, so 8 MiB is generous headroom
// without letting a client buffer arbitrary input.
const maxBatchBody = 8 << 20

// DefaultMaxBatch is the item bound of every batch: a server's and a
// coordinator's batch request, and a sub-query frame. A batch occupies
// one execution slot but weighs its item count against the admission
// queue and the degradation occupancy, so one giant batch cannot starve
// single-query traffic undetected.
const DefaultMaxBatch = 256

// DecodeBatch reads the body of a POST /v1/batch/* request and refuses
// what is wrong with the batch as a whole: the method (ErrBatchMethod),
// a body that is oversize or not a BatchRequest, no items, more than
// DefaultMaxBatch, a negative timeout.
func DecodeBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	if r.Method != http.MethodPost {
		return nil, ErrBatchMethod
	}
	req, err := decodeBatchBody(w, r)
	if err != nil {
		return nil, fmt.Errorf("bad batch body: %v", err)
	}
	switch n := len(req.Items); {
	case n == 0:
		return nil, errors.New("empty batch")
	case n > DefaultMaxBatch:
		return nil, fmt.Errorf("batch of %d items exceeds the %d-item limit", n, DefaultMaxBatch)
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
	return func(w http.ResponseWriter, r *http.Request, sn *Snapshot, _ int64) (Request, error) {
		req, err := DecodeBatch(w, r)
		if err != nil {
			return Request{}, err
		}
		kn, err := resolveKnobs(prunable, req.Mode, floatText(req.Epsilon), floatText(req.Delta))
		if err != nil {
			return Request{}, err
		}
		return Request{TimeoutMS: req.TimeoutMS, Weight: len(req.Items), Batch: true, Items: mBatchItems, Run: func(ctx context.Context) (any, error) {
			return run(ctx, sn, kn, req.Items), nil
		}}, nil
	}
}
