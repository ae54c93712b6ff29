// Package wiretest is the wire contract of the six HTTP query routes
// (three single GETs, three batch POSTs) that a server and a
// coordinator both serve, as one table checked on any front: a bare
// server, or a coordinator over a fleet of one range, of two, or of two
// with the first replicated. Each row pins the status, the Retry-After /
// Allow header, the exact error text and the counter deltas, and that a
// request refused for what it says costs nothing: no hook runs on a
// server, no sub-request leaves a fleet, and a saturated front answers
// the same 400 / 405 instead of a 503. A row differs by target only
// where topology decides, and then it names each target's answer.
//
// Rows about a server's Config.Hook (a failing hook, a computation that
// outlives its deadline) run on servers only: on a fleet the hook runs
// on the shards, and a coordinator answers a failing shard as its own
// tests pin. A server's test adds its sub-query frame ops to the table
// as routes of its own (Route.Send).
//
// A row named with a "[wire N]" tag is an intended wire change and
// fails at the commit before it. A suite runs on one front's targets and
// names its rows with that front's tags: a server's test and a
// coordinator's name some rows apart.
package wiretest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// Items is the item count of every batch the table sends.
const Items = 2

// The table's operands, valid on a server's 64 × 64 table and a fleet's
// 32 × 96: a and b share the first range of every fleet, so their
// distance is one owner's; span crosses column 48, the boundary of a
// two-range fleet; tail lies in a two-range fleet's last range.
const (
	rectA, rectB, rectQ = "0,0,8,8", "16,16,8,8", "8,8,8,8"
	rectSpan, rectTail  = "8,44,8,8", "16,56,8,8"
)

// Kind is how a route carries its request.
type Kind int

const (
	Single Kind = iota // a GET whose URL is the one item
	Batch              // a POST whose JSON body holds the items
	Frame              // a sub-query frame op on a held connection
)

// Route is one query route. Name is the path under /v1/ and the op a
// server's Config.Hook sees.
type Route struct {
	Name string
	Op   string // distance | nearest | assign | sketch
	Kind Kind
	// Send carries a Frame route's request; Refusals are its own.
	Send     func(t *testing.T, base string, v Variant) Answer
	Refusals []Refusal
}

// Routes are the six HTTP query routes.
var Routes = []Route{
	{Name: "distance", Op: "distance"},
	{Name: "nearest", Op: "nearest"},
	{Name: "assign", Op: "assign"},
	{Name: "batch/distance", Op: "distance", Kind: Batch},
	{Name: "batch/nearest", Op: "nearest", Kind: Batch},
	{Name: "batch/assign", Op: "assign", Kind: Batch},
}

// Variant is one way to ask a route: the zero value is a valid request,
// each field bends it out of shape. Knobs travel where the route reads
// them: the URL of a single GET, the body of a batch. Partial and
// URLMode ride the URL of either; a batch whose body names no mode
// takes the URL's on a coordinator.
type Variant struct {
	Method, Timeout, Mode string
	Epsilon, Delta        string
	Partial, URLMode      string
	Items                 int    // batch item count; 0 = Items, -1 = none
	RawBody, Tail         string // a body sent verbatim; bytes after an encoded batch body
	A, B, Q               string // operands in place of the table's
	Frame                 any    // what a Frame route's Send bends; a frame's Method is an op no shard knows
}

// Answer is what a route answered, whatever carried it.
type Answer struct {
	Code              int // 0: the connection closed unanswered
	RetryAfter, Allow string
	Body              []byte
	ContentLength     int64
	JSON              bool // the body is the JSON the codec promises
}

// Stats are the counters a front advances: a server's
// server.ReadStats (a shed is Unavailable), or a coordinator's
// coord.ReadStats, which counts no batches or frames.
type Stats struct {
	Requests, BatchRequests, Served, Unavailable, TimedOut int64
	BatchItems, ItemErrors, Subqueries, SubItems           int64
}

// Setup is what a row needs its front built over. A fleet applies
// Slots and Queue, and Start's hook, to each of its shards.
type Setup struct {
	Booting    bool // nothing to serve yet
	NoClusters bool // a snapshot built without clustering
	Extreme    bool // cells of ±1.7e308: no distance between two rectangles is finite
	LoseLast   bool // a fleet's last range deregistered; a server is as it was
	Slots      int
	Queue      int
}

// Front is a started server or coordinator.
type Front struct {
	URL string
	// Calls is what the front has asked of what is behind it: the ops
	// a server's hook ran for, or one entry a sub-request a fleet sent.
	Calls  func() []string
	Queued func() int
	// Inflight is a server's execution slots held; nil on a fleet.
	Inflight func() int
	// Slots and Queue are its admission sizes; a coordinator's are its
	// shards' summed.
	Slots, Queue int
	// Ref, when set, serves the same table whole: every 200 body the
	// front answers must be Ref's answer to the same request.
	Ref string
}

// Target is one front's topology.
type Target struct {
	Name        string
	Coordinator bool
	Ranges      int // a fleet's column ranges; 0 on a server
	Start       func(t *testing.T, s Setup, hook func(op string) error) *Front
	Stats       func() Stats
	// Shape is what a 200 answer of op decodes into.
	Shape func(op string) any
}

// Server is the target of a bare server over the snapshot snap builds
// for a setup (nil while booting). Its hook records the op names it saw
// and then runs hook.
func Server(snap func(t *testing.T, s Setup) *server.Snapshot) Target {
	return Target{
		Name: "server",
		Start: func(t *testing.T, s Setup, hook func(op string) error) *Front {
			var mu sync.Mutex
			var ops []string
			cfg := server.Config{MaxInflight: s.Slots, MaxQueue: s.Queue, DefaultTimeout: 30 * time.Second}
			cfg.Hook = func(op string) error {
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
				if hook != nil {
					return hook(op)
				}
				return nil
			}
			var sn *server.Snapshot
			if !s.Booting {
				sn = snap(t, s)
			}
			srv, err := server.New(sn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			return &Front{URL: ts.URL, Queued: srv.Queued, Inflight: srv.Inflight, Slots: s.Slots, Queue: s.Queue, Calls: func() []string {
				mu.Lock()
				defer mu.Unlock()
				return append([]string(nil), ops...)
			}}
		},
		Stats: func() Stats {
			s := server.ReadStats()
			return Stats{
				Requests: s.Requests, BatchRequests: s.BatchRequests, Served: s.Served, Unavailable: s.Shed, TimedOut: s.TimedOut,
				BatchItems: s.BatchItems, ItemErrors: s.BatchItemErrors, Subqueries: s.ShardSubqueries, SubItems: s.ShardSubqueryItems,
			}
		},
		Shape: func(op string) any {
			switch op {
			case "distance":
				return &server.DistanceResult{}
			case "nearest":
				return &server.NearestResult{}
			}
			return &server.AssignResult{}
		},
	}
}

// Want is what one request must produce.
type Want struct {
	Code              int
	RetryAfter, Allow string
	Err               string // the "error" of a non-200 body
	ItemErr           string // batch 200: every item is this error
	Stats
	Calls int64
}

// Refusal is a request a front refuses for what it says. Code 200 is a
// request that front answers. Tag is the "[wire N]" tag of the answer
// it names, and joins Name in the row's name.
type Refusal struct {
	Name   string
	V      Variant
	Code   int
	Err    string
	Tag    string
	Server *Refusal // a server's answer and its tag, where either differs from a coordinator's
}

func (r Refusal) on(tg Target) Refusal {
	if r.Server != nil && !tg.Coordinator {
		return *r.Server
	}
	return r
}

// Suite is the table over a set of one front's targets: all servers or
// all coordinators.
type Suite struct {
	Targets []Target
	Routes  []Route
	// Extra adds rows of the caller's own under a route.
	Extra func(t *testing.T, rt Route)
}

// Request is rt's HTTP request at base, bent as v says.
func (rt Route) Request(t *testing.T, base string, v Variant) *http.Request {
	t.Helper()
	a, b, q := or(v.A, rectA), or(v.B, rectB), or(v.Q, rectQ)
	vals := url.Values{}
	set := func(k, s string) {
		if s != "" {
			vals.Set(k, s)
		}
	}
	set("partial", v.Partial)
	set("mode", v.URLMode)
	method, path := http.MethodGet, "/v1/"+rt.Name
	var body []byte
	if rt.Kind == Batch {
		method = http.MethodPost
		req := server.BatchRequest{Mode: v.Mode, Epsilon: knob(t, v.Epsilon), Delta: knob(t, v.Delta)}
		if v.Timeout != "" {
			ms, err := strconv.Atoi(v.Timeout)
			if err != nil {
				t.Fatalf("batch timeout %q: %v", v.Timeout, err)
			}
			req.TimeoutMS = ms
		}
		n := v.Items
		if n == 0 {
			n = Items
		}
		for i := 0; i < n; i++ {
			if rt.Op == "distance" {
				req.Items = append(req.Items, server.BatchItem{A: a, B: b})
			} else {
				req.Items = append(req.Items, server.BatchItem{Q: q})
			}
		}
		var err error
		if body, err = json.Marshal(&req); err != nil {
			t.Fatal(err)
		}
		body = append(body, v.Tail...)
	} else {
		if rt.Op == "distance" {
			vals.Set("a", a)
			vals.Set("b", b)
		} else {
			vals.Set("q", q)
		}
		for k, s := range map[string]string{"timeout_ms": v.Timeout, "mode": v.Mode, "epsilon": v.Epsilon, "delta": v.Delta} {
			set(k, s)
		}
	}
	if v.RawBody != "" {
		body = []byte(v.RawBody)
	}
	if v.Method != "" {
		method = v.Method
	}
	u := base + path
	if enc := vals.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

func or(s, def string) string {
	if s != "" {
		return s
	}
	return def
}

func knob(t *testing.T, s string) *float64 {
	if s == "" {
		return nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("batch knob %q: %v", s, err)
	}
	return &f
}

// Ask sends rt's request bent as v to base.
func (rt Route) Ask(t *testing.T, base string, v Variant) Answer {
	t.Helper()
	if rt.Send != nil {
		return rt.Send(t, base, v)
	}
	req := rt.Request(t, base, v)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return Answer{
		Code: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After"), Allow: resp.Header.Get("Allow"),
		Body: body, ContentLength: resp.ContentLength, JSON: resp.Header.Get("Content-Type") == "application/json",
	}
}

// Do asks rt at fr in the way v bends the request, checks the answer
// and the counter deltas against want and returns the body. A 200 of a
// front with a Ref must be Ref's answer byte for byte.
func Do(t *testing.T, tg Target, fr *Front, rt Route, v Variant, want Want) []byte {
	t.Helper()
	before, calls := tg.Stats(), len(fr.Calls())
	a := rt.Ask(t, fr.URL, v)
	after, called := tg.Stats(), fr.Calls()[calls:]

	if a.Code != want.Code {
		t.Fatalf("status %d, want %d (body %s)", a.Code, want.Code, a.Body)
	}
	if a.JSON {
		checkJSON(t, tg, rt, a)
	}
	if a.RetryAfter != want.RetryAfter {
		t.Errorf("Retry-After %q, want %q", a.RetryAfter, want.RetryAfter)
	}
	if a.Allow != want.Allow {
		t.Errorf("Allow %q, want %q", a.Allow, want.Allow)
	}
	if want.Code != http.StatusOK && want.Code != 0 {
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(a.Body, &eb); err != nil || eb.Error != want.Err {
			t.Errorf("error body %s, want error %q", a.Body, want.Err)
		}
	}
	if want.ItemErr != "" {
		var br server.BatchResponse
		if err := json.Unmarshal(a.Body, &br); err != nil {
			t.Fatalf("batch body %s: %v", a.Body, err)
		}
		if len(br.Items) != Items || br.Failed != Items || br.Served != 0 {
			t.Errorf("batch counts %+v, want %d failed items", br, Items)
		}
		wantItem, _ := json.Marshal(map[string]string{"error": want.ItemErr})
		for i, it := range br.Items {
			if !bytes.Equal(it, wantItem) {
				t.Errorf("item %d: %s, want %s", i, it, wantItem)
			}
		}
	}
	if want.Code == http.StatusOK && fr.Ref != "" {
		if ref := rt.Ask(t, fr.Ref, v); ref.Code != http.StatusOK || !bytes.Equal(a.Body, ref.Body) {
			t.Errorf("body\n%s\nthe whole table's server answers %d\n%s", a.Body, ref.Code, ref.Body)
		}
	}

	if tg.Coordinator {
		want.BatchRequests, want.BatchItems, want.ItemErrors, want.Subqueries, want.SubItems = 0, 0, 0, 0, 0
	} else {
		if rt.Kind == Batch {
			want.BatchRequests = 1
		}
		if rt.Kind == Frame {
			want.Subqueries = 1
		}
	}
	want.Requests = 1
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", after.Requests - before.Requests, want.Requests},
		{"batch_requests", after.BatchRequests - before.BatchRequests, want.BatchRequests},
		{"served", after.Served - before.Served, want.Served},
		{"unavailable", after.Unavailable - before.Unavailable, want.Unavailable},
		{"timedout", after.TimedOut - before.TimedOut, want.TimedOut},
		{"batch_items", after.BatchItems - before.BatchItems, want.BatchItems},
		{"batch_item_errors", after.ItemErrors - before.ItemErrors, want.ItemErrors},
		{"shard_subqueries", after.Subqueries - before.Subqueries, want.Subqueries},
		{"shard_subquery_items", after.SubItems - before.SubItems, want.SubItems},
		{"calls", int64(len(called)), want.Calls},
	} {
		if c.got != c.want {
			t.Errorf("counter %s advanced %d, want %d", c.name, c.got, c.want)
		}
	}
	if !tg.Coordinator && want.Calls > 0 && (len(called) != 1 || called[0] != rt.Name) {
		t.Errorf("hook saw %v, want [%s]", called, rt.Name)
	}
	return a.Body
}

// checkJSON holds a JSON answer to the wire codec's two promises:
// Content-Length is the body's length (no chunked framing), and the
// bytes are json.Marshal's of the shape the route answers.
func checkJSON(t *testing.T, tg Target, rt Route, a Answer) {
	t.Helper()
	if a.ContentLength != int64(len(a.Body)) {
		t.Errorf("Content-Length %d on a body of %d bytes", a.ContentLength, len(a.Body))
	}
	var v any = &struct {
		Error string `json:"error"`
	}{}
	if a.Code == http.StatusOK {
		v = &server.BatchResponse{}
		if rt.Kind != Batch {
			v = tg.Shape(rt.Op)
		}
	}
	if err := json.Unmarshal(a.Body, v); err != nil {
		t.Fatalf("body %s: %v", a.Body, err)
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), a.Body) {
		t.Errorf("body\n%sjson.Marshal of it decoded\n%s", a.Body, again)
	}
}

// OK is the answer of tg to a valid request: a fleet sends one
// sub-request a range a scan needs, and a whole request to the one
// owner of a distance's operands or of a one-range fleet.
func (rt Route) OK(tg Target) Want {
	w := Want{Code: http.StatusOK, Calls: 1}
	w.Served = 1
	switch rt.Kind {
	case Batch:
		w.Served, w.BatchItems = Items, Items
	case Frame:
		w.SubItems = Items
	}
	if tg.Coordinator && rt.Op != "distance" {
		w.Calls = int64(tg.Ranges)
	}
	return w
}

// refusals lists every by-content refusal of rt's HTTP requests.
func (rt Route) refusals() []Refusal {
	if rt.Send != nil {
		return rt.Refusals
	}
	const (
		shardLocal = "mode=prune is shard-local; query a shard directly"
		noPrune    = `mode "prune" is not supported for distance queries (nearest and assign only)`
		wire1      = " [wire 1]"
	)
	prune := func(name string, v Variant, err string, tag string) Refusal {
		v.Mode = server.ModePrune
		return Refusal{Name: name, V: v, Code: 400, Err: shardLocal, Tag: tag, Server: &Refusal{Code: 400, Err: err, Tag: tag}}
	}
	const badMode = `bad mode "wat"`
	out := []Refusal{
		{Name: "bad mode", V: Variant{Mode: "wat"}, Code: 400, Err: badMode},
		{Name: "bad partial", V: Variant{Partial: "sometimes"}, Code: 400, Err: `bad partial "sometimes" (want allow or deny)`,
			Server: &Refusal{Code: 200}},
		{Name: "mode=prune", V: Variant{Mode: server.ModePrune}, Code: 400, Err: shardLocal, Server: &Refusal{Code: 200}},
	}
	if rt.Op == "distance" {
		out[2].Server = &Refusal{Code: 400, Err: noPrune}
		out = append(out, prune("mode=prune on distance", Variant{}, noPrune, wire1))
	}
	badEps, badDelta := `bad epsilon "-1" (want a number ≥ 0)`, `bad delta "1.5" (want a number in (0, 1))`
	zeroDelta := `bad delta "0" (want a number in (0, 1))`
	if rt.Kind == Single {
		out[0].Server = &Refusal{Code: 400, Err: badMode, Tag: wire1}
		out = append(out,
			Refusal{Name: "bad timeout_ms", V: Variant{Timeout: "soon"}, Code: 400, Err: `bad timeout_ms "soon"`},
			Refusal{Name: "zero timeout_ms", V: Variant{Timeout: "0"}, Code: 400, Err: `bad timeout_ms "0"`})
		if rt.Op == "distance" {
			return out
		}
		out = append(out,
			prune("bad epsilon", Variant{Epsilon: "-1"}, badEps, wire1),
			prune("unparsable epsilon", Variant{Epsilon: "abc"}, `bad epsilon "abc" (want a number ≥ 0)`, wire1))
		// ParseFloat reads these as +Inf, which no prune block can carry:
		// the request's 400, not the encoder's 500.
		for _, inf := range []string{"Inf", "+Inf", "Infinity"} {
			out = append(out, prune("infinite epsilon "+inf, Variant{Epsilon: inf}, `bad epsilon "`+inf+`" (want a number ≥ 0)`, ""))
		}
		return append(out, prune("bad delta", Variant{Delta: "1.5"}, badDelta, wire1), prune("zero delta", Variant{Delta: "0"}, zeroDelta, wire1))
	}
	const oversize = "batch of 257 items exceeds the 256-item limit"
	out = append(out,
		Refusal{Name: "wrong method", V: Variant{Method: http.MethodGet}, Code: 405, Err: server.ErrBatchMethod.Error()},
		Refusal{Name: "malformed body", V: Variant{RawBody: "{not json"}, Code: 400,
			Err: "bad batch body: invalid character 'n' looking for beginning of object key string"},
		Refusal{Name: "bytes after the value", V: Variant{Tail: "0"}, Code: 400,
			Err: "bad batch body: invalid character '0' after top-level value", Tag: " [wire 5]"},
		Refusal{Name: "empty batch", V: Variant{Items: -1}, Code: 400, Err: "empty batch"},
		Refusal{Name: "oversize batch", V: Variant{Items: server.DefaultMaxBatch + 1}, Code: 400, Err: oversize,
			Tag: " [wire 4]", Server: &Refusal{Code: 400, Err: oversize}},
		Refusal{Name: "bad timeout_ms", V: Variant{Timeout: "-1"}, Code: 400, Err: "bad timeout_ms -1"},
		Refusal{Name: "bad mode in the URL", V: Variant{URLMode: "wat"}, Code: 400, Err: badMode, Server: &Refusal{Code: 200}})
	if rt.Op == "distance" {
		return out
	}
	const wire13 = " [wire 1] [wire 3]"
	return append(out, prune("bad epsilon", Variant{Epsilon: "-1"}, badEps, wire13),
		prune("bad delta", Variant{Delta: "1.5"}, badDelta, wire13), prune("zero delta", Variant{Delta: "0"}, zeroDelta, wire13))
}

// want is r's answer on tg: a request tg answers is an ok.
func (r Refusal) want(rt Route, tg Target) Want {
	r = r.on(tg)
	if r.Code == http.StatusOK {
		return rt.OK(tg)
	}
	w := Want{Code: r.Code, Err: r.Err}
	if r.Code == http.StatusMethodNotAllowed {
		w.Allow = http.MethodPost
	}
	return w
}

// Run checks every row on every target.
func (s Suite) Run(t *testing.T) {
	f := fronts{}
	for _, tg := range s.Targets {
		if tg.Coordinator != s.Targets[0].Coordinator {
			t.Fatalf("target %s is not the front of %s", tg.Name, s.Targets[0].Name)
		}
		for _, setup := range []Setup{{}, {Booting: true}, {NoClusters: true}, {Extreme: true}, {LoseLast: true}} {
			f[shared{tg.Name, setup}] = tg.Start(t, setup, nil)
		}
	}
	for _, rt := range s.Routes {
		t.Run(rt.Name, func(t *testing.T) { s.route(t, rt, f) })
	}
}

// fronts are the fronts rows share: a target's under each setup with
// no hook.
type fronts map[shared]*Front

type shared struct {
	target string
	setup  Setup
}

func (f fronts) of(tg Target, s Setup) *Front { return f[shared{tg.Name, s}] }

// each runs fn once a target, as its subtest.
func (s Suite) each(t *testing.T, fn func(t *testing.T, tg Target)) {
	for _, tg := range s.Targets {
		t.Run(tg.Name, func(t *testing.T) { fn(t, tg) })
	}
}

func (s Suite) route(t *testing.T, rt Route, f fronts) {
	valid := func(name string, v Variant) {
		t.Run(name, func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) {
				body := Do(t, tg, f.of(tg, Setup{}), rt, v, rt.OK(tg))
				// mode=auto on several ranges is the sketch tier, whose
				// merge is the only path across processes.
				if cross := bytes.Contains(body, []byte(`"reason":"cross_shard"`)); rt.Kind != Frame &&
					cross != (tg.Ranges > 1 && rt.Op != "distance") {
					t.Errorf("cross_shard tag %v on %d ranges: %s", cross, tg.Ranges, body)
				}
			})
		})
	}
	valid("ok", Variant{})
	if s.Extra != nil {
		s.Extra(t, rt)
	}
	switch rt.Kind {
	case Single: // the GET routes never looked at the method; that is kept
		valid("method-agnostic", Variant{Method: http.MethodPost})
	case Batch: // json.Encoder ends a value with a newline; a body may too
		valid("ok with a trailing newline", Variant{Tail: "\n"})
		t.Run("batch equals singles", func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) {
				items := []server.BatchItem{{Q: rectQ}, {Q: "not-a-rect"}, {Q: rectSpan}, {Q: rectTail}}
				if rt.Op == "distance" {
					items = []server.BatchItem{{A: rectA, B: rectB}, {A: "nope", B: rectB}, {A: rectSpan, B: rectB}, {A: rectA, B: rectTail}}
				}
				fr := f.of(tg, Setup{})
				BatchEqualsSingles(t, fr.URL, fr.Ref, rt.Op, url.Values{}, items)
			})
		})
	}

	t.Run("booting", func(t *testing.T) {
		s.each(t, func(t *testing.T, tg Target) {
			fr := f.of(tg, Setup{Booting: true})
			want := Want{Code: 503, RetryAfter: "1", Err: "no snapshot published yet, retry later"}
			want.Unavailable = 1
			if tg.Coordinator {
				want.Err = "no shard has reported yet, retry later"
			}
			Do(t, tg, fr, rt, Variant{}, want)
			// Not ready outranks every other refusal, the method (or op) included.
			Do(t, tg, fr, rt, Variant{Method: http.MethodDelete, Mode: "wat", Timeout: "-1"}, want)
		})
	})

	t.Run("refused", func(t *testing.T) {
		for _, r := range rt.refusals() {
			t.Run(r.Name+r.on(s.Targets[0]).Tag, func(t *testing.T) {
				s.each(t, func(t *testing.T, tg Target) { Do(t, tg, f.of(tg, Setup{}), rt, r.V, r.want(rt, tg)) })
			})
		}
	})

	// Every slot held and every queue seat taken: a valid request sheds
	// before it costs anything, and a request refused for what it says
	// is still refused for that: it never asked for a slot.
	t.Run("saturated", func(t *testing.T) {
		gate := faultinject.NewGate()
		defer gate.Open()
		hold := func(string) error { gate.Wait(); return nil }
		fronts := map[string]*Front{}
		var parked []chan int
		for _, tg := range s.Targets {
			fr := tg.Start(t, Setup{Slots: 1, Queue: 2}, hold)
			fronts[tg.Name] = fr
			parked = append(parked, park(t, fr, fr.Slots, fr.Queue))
		}
		shed := Want{Code: 503, RetryAfter: "1", Err: "server saturated, retry later"}
		shed.Unavailable = 1
		t.Run("shed", func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) { Do(t, tg, fronts[tg.Name], rt, Variant{}, shed) })
		})
		for _, r := range rt.refusals() {
			t.Run(r.Name+r.on(s.Targets[0]).Tag, func(t *testing.T) {
				s.each(t, func(t *testing.T, tg Target) {
					want := r.want(rt, tg)
					if want.Code == http.StatusOK {
						want = shed
					}
					Do(t, tg, fronts[tg.Name], rt, r.V, want)
					if q, fr := fronts[tg.Name].Queued(), fronts[tg.Name]; q != fr.Queue {
						t.Errorf("queued cost %d after the probe, want %d", q, fr.Queue)
					}
				})
			})
		}
		gate.Open()
		for _, p := range parked {
			for code := range p {
				if code != http.StatusOK {
					t.Errorf("parked request: status %d", code)
				}
			}
		}
	})

	t.Run("deadline expired while queued", func(t *testing.T) {
		s.each(t, func(t *testing.T, tg Target) {
			gate := faultinject.NewGate()
			defer gate.Open()
			fr := tg.Start(t, Setup{Slots: 1, Queue: 8}, func(string) error { gate.Wait(); return nil })
			parked := park(t, fr, fr.Slots, 0)
			want := Want{Code: 504, Err: "deadline expired while queued"}
			want.TimedOut = 1
			Do(t, tg, fr, rt, Variant{Timeout: "30"}, want)
			if q := fr.Queued(); q != 0 {
				t.Errorf("queued cost %d after the queue timeout, want 0", q)
			}
			gate.Open()
			for range parked {
			}
		})
	})

	if rt.Op == "distance" && rt.Kind != Frame {
		// Cells at the end of float64's range: the table is finite, the
		// distance between two of its rectangles is not, and that is the
		// request's fault, not the encoder's.
		t.Run("no finite distance", func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) {
				const msg = "no finite distance between a and b"
				want := Want{Code: 400, Err: msg, Calls: 1}
				if rt.Kind == Batch {
					want = Want{Code: 200, ItemErr: msg, Stats: Stats{BatchItems: Items, ItemErrors: Items}, Calls: 1}
				}
				Do(t, tg, f.of(tg, Setup{Extreme: true}), rt, Variant{}, want)
			})
		})
	}
	if rt.Op == "assign" {
		t.Run("assign without clusters", func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) {
				const msg = "snapshot built without clustering"
				// A server finds no clusters once a query is admitted; a
				// frame's decoder and a coordinator's map know before.
				want := Want{Code: 404, Err: msg, Calls: 1}
				if rt.Kind == Batch {
					want = Want{Code: 200, ItemErr: msg, Stats: Stats{BatchItems: Items, ItemErrors: Items}, Calls: 1}
				}
				if tg.Coordinator || rt.Kind == Frame {
					want.Calls = 0
				}
				Do(t, tg, f.of(tg, Setup{NoClusters: true}), rt, Variant{}, want)
			})
		})
	}
	if rt.Kind != Frame {
		// A fleet whose last range was deregistered keeps the table's
		// width: the tail is a gap, which no query can be answered from.
		t.Run("lost last range", func(t *testing.T) {
			s.each(t, func(t *testing.T, tg Target) {
				v := Variant{A: rectTail, B: rectTail, Q: rectTail, Partial: "allow"}
				want := rt.OK(tg)
				if tg.Coordinator {
					msg := "no shard known for cols 56-64; register a replacement"
					if tg.Ranges == 1 {
						msg = "query owner shard (cols 0-96) unreachable: no live endpoint for shard cols 0-96"
					}
					want = Want{Code: 503, RetryAfter: "1", Err: msg}
					want.Unavailable = 1
					if rt.Kind == Batch {
						want = Want{Code: 200, ItemErr: msg}
					}
				}
				Do(t, tg, f.of(tg, Setup{LoseLast: true}), rt, v, want)
			})
		})
	}

	if s.Targets[0].Coordinator {
		return
	}
	// Rows about a server's own hook.
	t.Run("hook error", func(t *testing.T) {
		s.each(t, func(t *testing.T, tg Target) {
			fr := tg.Start(t, Setup{}, func(string) error { return errInjected })
			Do(t, tg, fr, rt, Variant{}, Want{Code: 500, Err: errInjected.Error(), Calls: 1})
			if n := fr.Inflight(); n != 0 {
				t.Errorf("%d slots held after a hook failure, want 0", n)
			}
		})
	})
	// The hook outlasts the 1 ms budget inside the slot, so the
	// computation starts on an expired context.
	t.Run("deadline mid-computation", func(t *testing.T) {
		s.each(t, func(t *testing.T, tg Target) {
			fr := tg.Start(t, Setup{}, func(string) error { time.Sleep(20 * time.Millisecond); return nil })
			want := Want{Code: 504, Err: server.DeadlineText, Calls: 1}
			want.TimedOut = 1
			switch rt.Kind {
			case Batch:
				want = Want{Code: 200, ItemErr: server.DeadlineText, Calls: 1,
					Stats: Stats{TimedOut: Items, BatchItems: Items, ItemErrors: Items}}
			case Frame:
				want.SubItems = Items // admitted, then the frame fails as one
			}
			Do(t, tg, fr, rt, Variant{Timeout: "1", Mode: server.ModeExact}, want)
		})
	})
}

var errInjected = errors.New("injected fault")

// park fills slots execution slots of fr and then queue queue seats
// with exact distances held at its hook, and returns the channel their
// statuses arrive on, closed once all have.
func park(t *testing.T, fr *Front, slots, queue int) chan int {
	t.Helper()
	const q = "/v1/distance?mode=exact&timeout_ms=30000&a=" + rectA + "&b=" + rectB
	codes := make(chan int, slots+queue)
	calls := len(fr.Calls())
	done := make(chan struct{}, slots+queue)
	ask := func() {
		defer func() { done <- struct{}{} }()
		resp, err := http.Get(fr.URL + q)
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	for i := 0; i < slots; i++ {
		go ask()
	}
	WaitFor(t, "the slots to fill", func() bool { return len(fr.Calls())-calls == slots })
	for i := 0; i < queue; i++ {
		go ask()
	}
	WaitFor(t, "the queue to fill", func() bool { return fr.Queued() == queue })
	go func() {
		for i := 0; i < slots+queue; i++ {
			<-done
		}
		close(codes)
	}()
	return codes
}

// WaitFor polls cond until it holds or five seconds pass. It is for
// states already bound to come (a request that has provably entered the
// admission queue), never to create them.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// BatchEqualsSingles posts items as one batch of op to base and requires
// every item to be the body of the same query sent alone, an answer or
// the error whose status the single carries, and every single answered
// to be ref's answer byte for byte when ref is set. It returns the
// singles served and the partial answers among them.
func BatchEqualsSingles(t testing.TB, base, ref, op string, vals url.Values, items []server.BatchItem) (served, partial int) {
	t.Helper()
	body, err := json.Marshal(&server.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batch/"+op+"?"+vals.Encode(), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var br server.BatchResponse
	if err != nil || json.Unmarshal(raw, &br) != nil || resp.StatusCode != 200 || len(br.Items) != len(items) {
		t.Fatalf("batch/%s: status %d, body %s (%v)", op, resp.StatusCode, raw, err)
	}
	for i, it := range items {
		single := url.Values{}
		for k, v := range vals {
			single[k] = v
		}
		for k, v := range map[string]string{"a": it.A, "b": it.B, "q": it.Q} {
			if v != "" {
				single.Set(k, v)
			}
		}
		code, _, one := Get(t, base+"/v1/"+op+"?"+single.Encode())
		if want := bytes.TrimSuffix(one, []byte("\n")); !bytes.Equal(br.Items[i], want) {
			t.Errorf("item %d (%+v):\n  batch  %s\n  single %s (status %d)", i, it, br.Items[i], want, code)
		}
		if code != http.StatusOK {
			continue
		}
		served++
		if ref != "" {
			if rcode, _, rbody := Get(t, ref+"/v1/"+op+"?"+single.Encode()); rcode != code || !bytes.Equal(rbody, one) {
				t.Errorf("item %d (%+v):\n  single %s\n  whole table's server %s (status %d)", i, it, one, rbody, rcode)
			}
		}
		if strings.Contains(string(one), `"partial":true`) {
			partial++
		}
	}
	if br.Served != served || br.Failed != len(items)-served {
		t.Errorf("batch served %d failed %d; the singles answered %d of %d", br.Served, br.Failed, served, len(items))
	}
	return served, partial
}

// Get performs one GET and returns its status, headers and body.
func Get(t testing.TB, u string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", u, err)
	}
	return resp.StatusCode, resp.Header, body
}
