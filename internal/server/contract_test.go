// The wire contract of every query route, in one table: nine routes
// (three single GETs, three batch POSTs, three shard sub-query ops on a
// held frame connection) × the conditions the serving pipeline
// distinguishes. Each row pins the
// status, the Retry-After / Allow header, the exact error text and the
// counter deltas — and, for a request that is refused for what it
// says rather than for what the server is doing, that the refusal
// comes before admission: Config.Hook is not called, and a saturated
// server answers the same 400 / 405 instead of a 503.
//
// The table was written against the handlers of the parent commit
// (three copies of the policy); rows whose name carries a "[wire N]"
// tag are the intended wire changes of the pipeline unification and
// are the only rows that fail there:
//
//	[wire 1] a refusal that used to come after admission and the hook
//	         (single-GET mode / ε / δ, sub-query method and body)
//	         comes before them, as batch refusals already did;
//	[wire 3] the ε / δ error text of a batch is the GET text;
//	[wire 5] a batch body with anything but white space after its JSON
//	         value is refused, where the value used to be answered.
//
// Rows tagged "[wire 25]" were written against PR 25's parent and fail
// there: mode=prune runs the exact engine, so its prune block reads
// margin exact, no lane, nothing pruned, every candidate a survivor, and
// a pool at p < 0.3 — whose sketch screen the parent could not plan, a
// 400 — answers it.
//
// ([wire 2], a wrapped deadline error answering 504 on every route, is
// pinned white-box in internal_test.go; [wire 4] is the coordinator's.)
//
// The sub-query rows were re-written when the three routes took the
// binary n-item frame (frame.go) in place of one JSON item each: what a
// frame can say wrong is a longer list, refused at the same point. A row
// that checks what it checked before keeps its name, tag included.
//
// They moved again when the frames left their three POST routes for a
// held connection (conn.go), run against the HTTP routes first and then
// against the frame carrier: every row keeps its status, Retry-After,
// error text and counter deltas, but for what a binary envelope cannot
// say the way a URL did. "bad timeout_ms" is a negative timeout_ms, which
// the frame refuses with the batch body's text; "wrong method [wire 1]"
// is an op no shard knows, which closes the connection unanswered, as a
// length past what a frame to the pool can have does; the version a
// shard speaks is 2; and an item kind is refused on the op's name, not a
// route's path. The three retired paths answer 404.
package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
)

type routeKind int

const (
	kindSingle routeKind = iota
	kindBatch
	kindSub
)

// ctRoute is one query route: hook is the name Config.Hook sees. A
// sub-query route is its frame op, sub, with no method or path.
type ctRoute struct {
	hook   string
	kind   routeKind
	op     string // distance | nearest | assign | sketch
	method string
	path   string
	sub    server.SubOp
}

var ctRoutes = []ctRoute{
	{"distance", kindSingle, "distance", http.MethodGet, "/v1/distance", 0},
	{"nearest", kindSingle, "nearest", http.MethodGet, "/v1/nearest", 0},
	{"assign", kindSingle, "assign", http.MethodGet, "/v1/assign", 0},
	{"batch/distance", kindBatch, "distance", http.MethodPost, "/v1/batch/distance", 0},
	{"batch/nearest", kindBatch, "nearest", http.MethodPost, "/v1/batch/nearest", 0},
	{"batch/assign", kindBatch, "assign", http.MethodPost, "/v1/batch/assign", 0},
	{"sketch", kindSub, "sketch", "", "", server.SubSketch},
	{"sketch/nearest", kindSub, "nearest", "", "", server.SubNearest},
	{"sketch/assign", kindSub, "assign", "", "", server.SubAssign},
}

// ctItems is the item count of every batch and every sub-query frame
// the table sends.
const ctItems = 2

// ctVariant is one way to ask a route: the zero value is a valid
// request, each field bends it out of shape. Knobs travel where the
// route reads them — the URL for single GETs, the body for batches, the
// envelope for sub-query frames.
type ctVariant struct {
	method         string // "" = the route's own
	timeout        string // timeout_ms
	mode           string
	epsilon, delta string
	items          int    // batch item count; 0 = ctItems, -1 = none
	rawBody        string // POST body sent verbatim
	tail           string // appended to an encoded batch body
	// Sub-query frames: rects sends these rectangle items, lanes these
	// sketch items (default: ctItems rectangles on SubSketch, ctItems
	// sketches on the scan ops); patch overwrites bytes of the encoded
	// frame at an offset, and trim cuts (< 0) or pads (> 0) its tail. op,
	// when set, is the envelope's op code in place of the route's, and
	// length its length, sent with no frame after it.
	rects  []table.Rect
	lanes  []float64
	patch  map[int][]byte
	trim   int
	op     byte
	length uint32
}

// Offsets of the request frame's header fields.
const (
	offVersion = 4
	offKind    = 5
	offN       = 8
	offK       = 12
)

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

func (rt ctRoute) request(t *testing.T, base string, v ctVariant) *http.Request {
	t.Helper()
	const q, a, b = "8,8,8,8", "0,0,8,8", "16,16,8,8"
	vals := url.Values{}
	var body []byte
	switch rt.kind {
	case kindSingle:
		if rt.op == "distance" {
			vals.Set("a", a)
			vals.Set("b", b)
		} else {
			vals.Set("q", q)
		}
		for k, s := range map[string]string{"timeout_ms": v.timeout, "mode": v.mode, "epsilon": v.epsilon, "delta": v.delta} {
			if s != "" {
				vals.Set(k, s)
			}
		}
	case kindBatch:
		req := server.BatchRequest{Mode: v.mode}
		if v.timeout != "" {
			ms, err := strconv.Atoi(v.timeout)
			if err != nil {
				t.Fatalf("batch timeout %q: %v", v.timeout, err)
			}
			req.TimeoutMS = ms
		}
		knob := func(s string) *float64 {
			if s == "" {
				return nil
			}
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("batch knob %q: %v", s, err)
			}
			return &f
		}
		req.Epsilon, req.Delta = knob(v.epsilon), knob(v.delta)
		n := v.items
		if n == 0 {
			n = ctItems
		}
		for i := 0; i < n; i++ {
			if rt.op == "distance" {
				req.Items = append(req.Items, server.BatchItem{A: a, B: b})
			} else {
				req.Items = append(req.Items, server.BatchItem{Q: q})
			}
		}
		var err error
		if body, err = json.Marshal(&req); err != nil {
			t.Fatal(err)
		}
		body = append(body, v.tail...)
	}
	if v.rawBody != "" {
		body = []byte(v.rawBody)
	}
	method := rt.method
	if v.method != "" {
		method = v.method
	}
	u := base + rt.path
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

// frame is the request of a sub-query route: the envelope and its frame.
func (rt ctRoute) frame(t *testing.T, v ctVariant) []byte {
	t.Helper()
	op := byte(rt.sub)
	if v.op != 0 {
		op = v.op
	}
	var ms int
	if v.timeout != "" {
		var err error
		if ms, err = strconv.Atoi(v.timeout); err != nil {
			t.Fatalf("frame timeout %q: %v", v.timeout, err)
		}
	}
	if v.length != 0 {
		env := envelope(op, int32(ms), nil)
		binary.LittleEndian.PutUint32(env[5:], v.length)
		return env
	}
	tile := table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8}
	query := &server.SubQuery{K: snap(t).Pool().K(), Rects: v.rects, Sketches: v.lanes}
	switch {
	case v.rects != nil || v.lanes != nil:
	case rt.op == "sketch":
		query.Rects = []table.Rect{tile, tile}
	default:
		sk, err := snap(t).Pool().Sketch(tile, nil)
		if err != nil {
			t.Fatal(err)
		}
		query.Sketches = append(append([]float64{}, sk...), sk...)
	}
	body, err := query.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for off, b := range v.patch {
		copy(body[off:], b)
	}
	if v.trim < 0 {
		body = body[:len(body)+v.trim]
	}
	body = append(body, make([]byte, max(v.trim, 0))...)
	if v.rawBody != "" {
		body = []byte(v.rawBody)
	}
	return envelope(op, int32(ms), body)
}

// ctAnswer is what a route answered, whatever carried it.
type ctAnswer struct {
	code              int // 0: the connection closed unanswered
	retryAfter, allow string
	body              []byte
	contentLength     int64
	json              bool // the body is the JSON the codec promises
}

// send asks rt at base in the way v bends the request: over HTTP, or as
// a frame on a connection of its own.
func (rt ctRoute) send(t *testing.T, base string, v ctVariant) ctAnswer {
	t.Helper()
	if rt.kind == kindSub {
		code, retryAfter, body := dialSub(t, base).exchange(t, rt.frame(t, v))
		a := ctAnswer{code: code, body: body, contentLength: int64(len(body)), json: code != 0 && code != http.StatusOK}
		if retryAfter > 0 {
			a.retryAfter = strconv.Itoa(retryAfter)
		}
		return a
	}
	req := rt.request(t, base, v)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return ctAnswer{
		code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), allow: resp.Header.Get("Allow"),
		body: body, contentLength: resp.ContentLength, json: resp.Header.Get("Content-Type") == "application/json",
	}
}

// ctWant is what one request must produce. Counter fields are deltas
// of the process-global counters around the request.
type ctWant struct {
	code       int
	retryAfter string
	allow      string
	err        string // the "error" field of a non-200 body
	itemErr    string // batch 200: every item is this error

	served, shed, timedOut int64
	batchItems, itemErrors int64
	subItems               int64
}

// ctDo asks rt at base in the way v bends the request, checks the answer
// and the counter deltas against want and returns the body. requests,
// batch_requests and shard_subqueries advance by one for every request of
// the matching kind, whatever the outcome. A want.code of 0 is a
// connection closed unanswered.
func ctDo(t *testing.T, rt ctRoute, base string, v ctVariant, want ctWant) []byte {
	t.Helper()
	before := server.ReadStats()
	a := rt.send(t, base, v)
	after := server.ReadStats()

	if a.code != want.code {
		t.Fatalf("status %d, want %d (body %s)", a.code, want.code, a.body)
	}
	if a.json {
		checkJSONAnswer(t, rt, a)
	}
	if a.retryAfter != want.retryAfter {
		t.Errorf("Retry-After %q, want %q", a.retryAfter, want.retryAfter)
	}
	if a.allow != want.allow {
		t.Errorf("Allow %q, want %q", a.allow, want.allow)
	}
	if want.code != http.StatusOK && want.code != 0 {
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(a.body, &eb); err != nil || eb.Error != want.err {
			t.Errorf("error body %s, want error %q", a.body, want.err)
		}
	}
	if want.itemErr != "" {
		var br server.BatchResponse
		if err := json.Unmarshal(a.body, &br); err != nil {
			t.Fatalf("batch body %s: %v", a.body, err)
		}
		if len(br.Items) != ctItems || br.Failed != ctItems || br.Served != 0 {
			t.Errorf("batch counts %+v, want %d failed items", br, ctItems)
		}
		wantItem, _ := json.Marshal(map[string]string{"error": want.itemErr})
		for i, it := range br.Items {
			if !bytes.Equal(it, wantItem) {
				t.Errorf("item %d: %s, want %s", i, it, wantItem)
			}
		}
	}

	one := func(k routeKind) int64 {
		if rt.kind == k {
			return 1
		}
		return 0
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", after.Requests - before.Requests, 1},
		{"batch_requests", after.BatchRequests - before.BatchRequests, one(kindBatch)},
		{"shard_subqueries", after.ShardSubqueries - before.ShardSubqueries, one(kindSub)},
		{"served", after.Served - before.Served, want.served},
		{"shed", after.Shed - before.Shed, want.shed},
		{"timedout", after.TimedOut - before.TimedOut, want.timedOut},
		{"batch_items", after.BatchItems - before.BatchItems, want.batchItems},
		{"batch_item_errors", after.BatchItemErrors - before.BatchItemErrors, want.itemErrors},
		{"shard_subquery_items", after.ShardSubqueryItems - before.ShardSubqueryItems, want.subItems},
	} {
		if c.got != c.want {
			t.Errorf("counter %s advanced %d, want %d", c.name, c.got, c.want)
		}
	}
	return a.body
}

// checkPruneAnswer asks rt for mode=prune and for mode=exact on cs and
// holds the first to the second, item by item: 200, the same tile or
// cluster and medoid and the same distance bits, tagged pruned, with the
// exact engine's prune block — margin exact, no sketch lane read, no
// candidate pruned, every candidate a survivor, the default knobs echoed.
func checkPruneAnswer(t *testing.T, rt ctRoute, cs *ctServer) {
	t.Helper()
	type answer struct {
		Tile, Cluster, Medoid int
		Distance              float64
		Tier                  string
		Prune                 *server.PruneStats
	}
	answers := func(mode string) []answer {
		body := ctDo(t, rt, cs.ts.URL, ctVariant{mode: mode}, rt.okWant())
		raw := []json.RawMessage{body}
		if rt.kind == kindBatch {
			var br server.BatchResponse
			mustUnmarshal(t, body, &br)
			raw = br.Items
		}
		out := make([]answer, len(raw))
		for i, r := range raw {
			mustUnmarshal(t, r, &out[i])
		}
		return out
	}
	pruned, exact := answers(server.ModePrune), answers(server.ModeExact)
	for i, p := range pruned {
		e := exact[i]
		if p.Tier != server.TierPruned || p.Tile != e.Tile || p.Cluster != e.Cluster || p.Medoid != e.Medoid ||
			math.Float64bits(p.Distance) != math.Float64bits(e.Distance) || p.Prune == nil {
			t.Fatalf("item %d: mode=prune %+v, mode=exact %+v", i, p, e)
		}
		if ps := *p.Prune; ps.Margin != server.MarginExact || ps.LanesEvaluated != 0 || ps.PrunedCandidates != 0 ||
			ps.ScreenSurvivors != ps.Candidates || ps.Epsilon != server.DefaultPruneEpsilon || ps.Delta != server.DefaultPruneDelta {
			t.Errorf("item %d: prune block %+v", i, ps)
		}
	}
}

// checkJSONAnswer holds every JSON answer of the table to the wire
// codec's two promises: Content-Length is the body's length (no chunked
// framing), and the bytes are json.Marshal's — decoded into the shape the
// route answers and marshaled again the way every handler did before the
// codec, they come back the same.
func checkJSONAnswer(t *testing.T, rt ctRoute, a ctAnswer) {
	t.Helper()
	if a.contentLength != int64(len(a.body)) {
		t.Errorf("Content-Length %d on a body of %d bytes", a.contentLength, len(a.body))
	}
	var v any = &struct {
		Error string `json:"error"`
	}{}
	if a.code == http.StatusOK {
		switch {
		case rt.kind == kindBatch:
			v = &server.BatchResponse{}
		case rt.op == "distance":
			v = &server.DistanceResult{}
		case rt.op == "nearest":
			v = &server.NearestResult{}
		default:
			v = &server.AssignResult{}
		}
	}
	if err := json.Unmarshal(a.body, v); err != nil {
		t.Fatalf("body %s: %v", a.body, err)
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), a.body) {
		t.Errorf("body\n%sjson.Marshal of it decoded\n%s", a.body, again)
	}
}

// ctRefusal is a request a route refuses for what it says.
type ctRefusal struct {
	name string
	v    ctVariant
	code int
	err  string
}

// refusals lists every by-content refusal of rt with the error text of
// the parent's handlers.
func (rt ctRoute) refusals(t *testing.T) []ctRefusal {
	k := snap(t).Pool().K()
	const (
		badEps    = `bad epsilon "-1" (want a number ≥ 0)`
		badDelta  = `bad delta "1.5" (want a number in (0, 1))`
		zeroDelta = `bad delta "0" (want a number in (0, 1))`
		noPrune   = `mode "prune" is not supported for distance queries (nearest and assign only)`
	)
	var out []ctRefusal
	add := func(name string, v ctVariant, code int, err string) {
		out = append(out, ctRefusal{name, v, code, err})
	}
	switch rt.kind {
	case kindSingle:
		add("bad timeout_ms", ctVariant{timeout: "soon"}, 400, `bad timeout_ms "soon"`)
		add("zero timeout_ms", ctVariant{timeout: "0"}, 400, `bad timeout_ms "0"`)
		add("bad mode [wire 1]", ctVariant{mode: "wat"}, 400, `bad mode "wat"`)
		if rt.op == "distance" {
			add("mode=prune on distance [wire 1]", ctVariant{mode: server.ModePrune}, 400, noPrune)
			break
		}
		add("bad epsilon [wire 1]", ctVariant{mode: server.ModePrune, epsilon: "-1"}, 400, badEps)
		add("unparsable epsilon [wire 1]", ctVariant{mode: server.ModePrune, epsilon: "abc"}, 400,
			`bad epsilon "abc" (want a number ≥ 0)`)
		// ParseFloat reads these as +Inf, which no prune block can carry:
		// the request's 400, not the encoder's 500.
		for _, inf := range []string{"Inf", "+Inf", "Infinity"} {
			add("infinite epsilon "+inf, ctVariant{mode: server.ModePrune, epsilon: inf}, 400,
				`bad epsilon "`+inf+`" (want a number ≥ 0)`)
		}
		add("bad delta [wire 1]", ctVariant{mode: server.ModePrune, delta: "1.5"}, 400, badDelta)
		add("zero delta [wire 1]", ctVariant{mode: server.ModePrune, delta: "0"}, 400, zeroDelta)
	case kindBatch:
		add("wrong method", ctVariant{method: http.MethodGet}, 405, "batch endpoints accept POST only")
		add("malformed body", ctVariant{rawBody: "{not json"}, 400,
			"bad batch body: invalid character 'n' looking for beginning of object key string")
		add("bytes after the value [wire 5]", ctVariant{tail: "0"}, 400,
			"bad batch body: invalid character '0' after top-level value")
		add("empty batch", ctVariant{items: -1}, 400, "empty batch")
		add("oversize batch", ctVariant{items: server.DefaultMaxBatch + 1}, 400, "batch of 257 items exceeds the 256-item limit")
		add("bad timeout_ms", ctVariant{timeout: "-1"}, 400, "bad timeout_ms -1")
		add("bad mode", ctVariant{mode: "wat"}, 400, `bad mode "wat"`)
		if rt.op == "distance" {
			add("mode=prune on distance [wire 1]", ctVariant{mode: server.ModePrune}, 400, noPrune)
			break
		}
		add("bad epsilon [wire 1] [wire 3]", ctVariant{mode: server.ModePrune, epsilon: "-1"}, 400, badEps)
		add("bad delta [wire 1] [wire 3]", ctVariant{mode: server.ModePrune, delta: "1.5"}, 400, badDelta)
		add("zero delta [wire 1] [wire 3]", ctVariant{mode: server.ModePrune, delta: "0"}, 400, zeroDelta)
	case kindSub:
		const badFrame = "bad sketch sub-query frame: "
		frameLen := 16 + ctItems*8*k
		if rt.op == "sketch" {
			frameLen = 16 + ctItems*16
		}
		add("bad timeout_ms", ctVariant{timeout: "-1"}, 400, "bad timeout_ms -1")
		add("wrong method [wire 1]", ctVariant{op: 9}, 0, "")
		add("length past what a frame can have", ctVariant{length: uint32(16 + server.DefaultMaxBatch*8*k + 1)}, 0, "")
		add("malformed body [wire 1]", ctVariant{rawBody: "{not json"}, 400, badFrame+"9-byte body is shorter than the 16-byte header")
		add("bad magic", ctVariant{patch: map[int][]byte{0: []byte("JSON")}}, 400, badFrame+`magic "JSON", want "TMSQ"`)
		add("another frame version", ctVariant{patch: map[int][]byte{offVersion: {9}}}, 400,
			fmt.Sprintf(badFrame+"version 9, this shard speaks %d", server.SubFrameVersion))
		add("unknown item kind", ctVariant{patch: map[int][]byte{offKind: {7}}}, 400, badFrame+"item kind 7 on "+rt.hook)
		add("no items", ctVariant{patch: map[int][]byte{offN: u32(0)}}, 400, "empty batch")
		// A frame's bound is a batch request's.
		add("too many items", ctVariant{patch: map[int][]byte{offN: u32(server.DefaultMaxBatch + 1)}}, 400,
			"batch of 257 items exceeds the 256-item limit")
		add("hostile item count", ctVariant{patch: map[int][]byte{offN: u32(1<<32 - 1)}}, 400,
			"batch of 4294967295 items exceeds the 256-item limit")
		add("short sketch [wire 1]", ctVariant{patch: map[int][]byte{offK: u32(uint32(k - 1))}}, 400,
			fmt.Sprintf("sketch has %d entries, this shard's pool has k=%d", k-1, k))
		add("hostile k", ctVariant{patch: map[int][]byte{offK: u32(1<<32 - 1)}}, 400,
			fmt.Sprintf("sketch has 4294967295 entries, this shard's pool has k=%d", k))
		add("one byte short", ctVariant{trim: -1}, 400, fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen-1, frameLen))
		add("one byte long", ctVariant{trim: 1}, 400, fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen+1, frameLen))
		add("one item short", ctVariant{patch: map[int][]byte{offN: u32(ctItems + 1)}}, 400,
			fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen, frameLen+(frameLen-16)/ctItems))
		add("rect outside the table [wire 1]", ctVariant{rects: []table.Rect{{R0: 8, C0: 8, Rows: 8, Cols: 8}, {Rows: 200, Cols: 200}}}, 400,
			"item 1: rect [0:200,0:200] outside table 64x64")
		// A frame has no text to misparse; a bad rectangle is one no table holds.
		add("bad rect [wire 1]", ctVariant{rects: []table.Rect{{R0: -8, C0: 8, Rows: 8, Cols: 0}}}, 400,
			"item 0: rect [-8:0,8:8] outside table 64x64")
		if rt.op == "sketch" {
			add("sketch items", ctVariant{lanes: make([]float64, k)}, 400, badFrame+"item kind 1 on sketch")
			break
		}
		lanes := make([]float64, ctItems*k)
		lanes[k+3] = math.NaN()
		add("non-finite lane", ctVariant{lanes: lanes}, 400, "item 1: sketch entry 3 is not finite")
		// What a number past float64's range is once it is bits: the JSON
		// form refused "1e309" in its parser, the frame refuses the lane.
		lanes = make([]float64, k)
		lanes[k-1] = math.Inf(1)
		add("overflowing sketch entry [wire 1]", ctVariant{lanes: lanes}, 400, fmt.Sprintf("item 0: sketch entry %d is not finite", k-1))
	}
	return out
}

func (r ctRefusal) want() ctWant {
	w := ctWant{code: r.code, err: r.err}
	if r.code == http.StatusMethodNotAllowed {
		w.allow = http.MethodPost
	}
	return w
}

// ctServer starts a server over sn (nil = booting) whose hook records
// the op names it saw and then runs inner.
type ctServer struct {
	s  *server.Server
	ts *httptest.Server

	mu  sync.Mutex
	ops []string
}

func newCtServer(t *testing.T, sn *server.Snapshot, cfg server.Config, inner func(op string) error) *ctServer {
	t.Helper()
	cs := &ctServer{}
	cfg.Hook = func(op string) error {
		cs.mu.Lock()
		cs.ops = append(cs.ops, op)
		cs.mu.Unlock()
		if inner != nil {
			return inner(op)
		}
		return nil
	}
	s, err := server.New(sn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs.s = s
	cs.ts = httptest.NewServer(s.Handler())
	t.Cleanup(cs.ts.Close)
	return cs
}

func (cs *ctServer) hookOps() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]string(nil), cs.ops...)
}

// okWant is the answer to a valid request on an idle server.
func (rt ctRoute) okWant() ctWant {
	switch rt.kind {
	case kindBatch:
		return ctWant{code: 200, served: ctItems, batchItems: ctItems}
	case kindSub:
		return ctWant{code: 200, served: 1, subItems: ctItems}
	}
	return ctWant{code: 200, served: 1}
}

// extremeSnap is a snapshot over a 64 × 64 table of ±1.7e308 cells.
func extremeSnap(t *testing.T) *server.Snapshot {
	t.Helper()
	tb := table.New(64, 64)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range tb.Data() {
		tb.Data()[i] = 1.7e308 * float64(1-2*rng.IntN(2))
	}
	return buildSnap(t, tb, 1, 16, 8, 0, 1)
}

func TestWireContract(t *testing.T) {
	sn := snap(t)
	bare, err := server.BuildSnapshot(context.Background(), fixTb, sn.Pool(), server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stable law at p = 0.25 has no analytic CDF.
	lowP := buildSnap(t, fixTb, 0.25, 16, 8, 4, 1)

	// One carrier a message kind: the sub-queries' HTTP routes are gone,
	// and the route that holds a frame connection takes only the upgrade.
	t.Run("retired sub-query routes", func(t *testing.T) {
		cs := newCtServer(t, sn, server.Config{}, nil)
		frame, err := (&server.SubQuery{K: sn.Pool().K(), Rects: []table.Rect{{Rows: 8, Cols: 8}}}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/sketch", "/v1/sketch/nearest", "/v1/sketch/assign"} {
			resp, err := http.Post(cs.ts.URL+path, "application/octet-stream", bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
			}
		}
	})
	t.Run("upgrade refusals", func(t *testing.T) {
		cs := newCtServer(t, sn, server.Config{}, nil)
		const msg = "want GET with Connection: Upgrade and Upgrade: " + server.SubUpgradeProtocol
		for name, c := range map[string]struct{ method, connection, upgrade string }{
			"no upgrade":           {http.MethodGet, "", ""},
			"the first frame form": {http.MethodGet, "Upgrade", "tabmine-sub/1"},
			"another protocol":     {http.MethodGet, "Upgrade", "websocket"},
			"no Connection token":  {http.MethodGet, "keep-alive", server.SubUpgradeProtocol},
			"POST":                 {http.MethodPost, "Upgrade", server.SubUpgradeProtocol},
		} {
			req, err := http.NewRequest(c.method, cs.ts.URL+server.SubUpgradePath, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Connection", c.connection)
			req.Header.Set("Upgrade", c.upgrade)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var eb struct {
				Error string `json:"error"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || eb.Error != msg {
				t.Errorf("%s: status %d body %s, want 400 %q", name, resp.StatusCode, body, msg)
			}
		}
		if n := server.ReadStats().SubConns; n != 0 {
			t.Errorf("%d frame connections held after refused upgrades", n)
		}
	})

	for _, rt := range ctRoutes {
		rt := rt
		t.Run(rt.hook, func(t *testing.T) {
			t.Run("ok", func(t *testing.T) {
				cs := newCtServer(t, sn, server.Config{}, nil)
				ctDo(t, rt, cs.ts.URL, ctVariant{}, rt.okWant())
				if ops := cs.hookOps(); len(ops) != 1 || ops[0] != rt.hook {
					t.Errorf("hook saw %v, want [%s]", ops, rt.hook)
				}
			})

			if rt.kind != kindSub && rt.op != "distance" {
				t.Run("mode=prune prune block [wire 25]", func(t *testing.T) {
					checkPruneAnswer(t, rt, newCtServer(t, sn, server.Config{}, nil))
				})
				t.Run("mode=prune at p < 0.3 answers [wire 25]", func(t *testing.T) {
					checkPruneAnswer(t, rt, newCtServer(t, lowP, server.Config{}, nil))
				})
			}

			// json.Encoder ends a value with a newline; a body may too.
			if rt.kind == kindBatch {
				t.Run("ok with a trailing newline", func(t *testing.T) {
					cs := newCtServer(t, sn, server.Config{}, nil)
					ctDo(t, rt, cs.ts.URL, ctVariant{tail: "\n"}, rt.okWant())
				})
			}

			// The GET routes never looked at the method; that is kept.
			if rt.method == http.MethodGet {
				t.Run("method-agnostic", func(t *testing.T) {
					cs := newCtServer(t, sn, server.Config{}, nil)
					ctDo(t, rt, cs.ts.URL, ctVariant{method: http.MethodPost}, rt.okWant())
				})
			}

			t.Run("booting", func(t *testing.T) {
				cs := newCtServer(t, nil, server.Config{}, nil)
				ctDo(t, rt, cs.ts.URL, ctVariant{}, ctWant{
					code: 503, retryAfter: "1", err: "no snapshot published yet, retry later", shed: 1,
				})
				// Not ready outranks every other refusal, the method (or op) included.
				ctDo(t, rt, cs.ts.URL, ctVariant{method: http.MethodDelete, op: 9, timeout: "-1"}, ctWant{
					code: 503, retryAfter: "1", err: "no snapshot published yet, retry later", shed: 1,
				})
				if ops := cs.hookOps(); len(ops) != 0 {
					t.Errorf("hook ran on a booting server: %v", ops)
				}
			})

			t.Run("refused", func(t *testing.T) {
				cs := newCtServer(t, sn, server.Config{}, nil)
				for _, r := range rt.refusals(t) {
					t.Run(r.name, func(t *testing.T) {
						ran := len(cs.hookOps())
						ctDo(t, rt, cs.ts.URL, r.v, r.want())
						if ops := cs.hookOps()[ran:]; len(ops) != 0 {
							t.Errorf("refused after the hook ran: %v", ops)
						}
					})
				}
			})

			// One request parked in the only slot, one in the only queue
			// seat: a valid request sheds, and a request refused for what
			// it says is still refused for that — it never asked for a slot.
			t.Run("saturated", func(t *testing.T) {
				gate := faultinject.NewGate()
				cs := newCtServer(t, sn, server.Config{
					MaxInflight: 1, MaxQueue: 1, DefaultTimeout: 30 * time.Second,
				}, func(string) error { gate.Wait(); return nil })
				parked := make(chan int, 2)
				park := func() {
					resp, err := http.Get(cs.ts.URL + "/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=sketch")
					if err != nil {
						parked <- -1
						return
					}
					resp.Body.Close()
					parked <- resp.StatusCode
				}
				go park()
				gate.AwaitArrivals(1)
				go park()
				waitFor(t, "the queue seat to fill", func() bool { return cs.s.Queued() == 1 })

				t.Run("shed", func(t *testing.T) {
					ctDo(t, rt, cs.ts.URL, ctVariant{}, ctWant{
						code: 503, retryAfter: "1", err: "server saturated, retry later", shed: 1,
					})
				})
				for _, r := range rt.refusals(t) {
					t.Run(r.name, func(t *testing.T) {
						ctDo(t, rt, cs.ts.URL, r.v, r.want())
					})
				}
				if ops := cs.hookOps(); len(ops) != 1 {
					t.Errorf("hook ran for %v, want the one parked request only", ops)
				}
				if q := cs.s.Queued(); q != 1 {
					t.Errorf("queued cost %d after the probes, want 1", q)
				}
				gate.Open()
				for i := 0; i < 2; i++ {
					if code := <-parked; code != 200 {
						t.Errorf("parked request: status %d", code)
					}
				}
			})

			t.Run("deadline expired while queued", func(t *testing.T) {
				gate := faultinject.NewGate()
				cs := newCtServer(t, sn, server.Config{
					MaxInflight: 1, MaxQueue: 8, DefaultTimeout: 30 * time.Second,
				}, func(string) error { gate.Wait(); return nil })
				parked := make(chan struct{})
				go func() {
					defer close(parked)
					resp, err := http.Get(cs.ts.URL + "/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=sketch")
					if err == nil {
						resp.Body.Close()
					}
				}()
				gate.AwaitArrivals(1)
				ctDo(t, rt, cs.ts.URL, ctVariant{timeout: "30"}, ctWant{
					code: 504, err: "deadline expired while queued", timedOut: 1,
				})
				if q := cs.s.Queued(); q != 0 {
					t.Errorf("queued cost %d after the queue timeout, want 0", q)
				}
				gate.Open()
				<-parked
			})

			t.Run("hook error", func(t *testing.T) {
				cs := newCtServer(t, sn, server.Config{}, func(string) error { return errors.New("injected fault") })
				ctDo(t, rt, cs.ts.URL, ctVariant{}, ctWant{code: 500, err: "injected fault"})
				if ops := cs.hookOps(); len(ops) != 1 || ops[0] != rt.hook {
					t.Errorf("hook saw %v, want [%s]", ops, rt.hook)
				}
				if n := cs.s.Inflight(); n != 0 {
					t.Errorf("%d slots held after a hook failure, want 0", n)
				}
			})

			// Cells at the end of float64's range: the table is finite, the
			// distance between two of its rectangles is not, and that is the
			// request's fault, not the encoder's.
			if rt.op == "distance" {
				t.Run("no finite distance", func(t *testing.T) {
					cs := newCtServer(t, extremeSnap(t), server.Config{}, nil)
					const msg = "no finite distance between a and b"
					want := ctWant{code: 400, err: msg}
					if rt.kind == kindBatch {
						want = ctWant{code: 200, itemErr: msg, batchItems: ctItems, itemErrors: ctItems}
					}
					ctDo(t, rt, cs.ts.URL, ctVariant{}, want)
				})
			}

			if rt.op == "assign" {
				t.Run("assign without clusters", func(t *testing.T) {
					cs := newCtServer(t, bare, server.Config{}, nil)
					const msg = "snapshot built without clustering"
					want := ctWant{code: 404, err: msg}
					if rt.kind == kindBatch {
						want = ctWant{code: 200, itemErr: msg, batchItems: ctItems, itemErrors: ctItems}
					}
					ctDo(t, rt, cs.ts.URL, ctVariant{}, want)
				})
			}

			// The hook outlasts the 1 ms budget inside the slot, so the
			// computation starts on an expired context.
			t.Run("deadline mid-computation", func(t *testing.T) {
				cs := newCtServer(t, sn, server.Config{}, func(string) error {
					time.Sleep(20 * time.Millisecond)
					return nil
				})
				const msg = "deadline expired mid-computation"
				want := ctWant{code: 504, err: msg, timedOut: 1}
				switch rt.kind {
				case kindBatch:
					want = ctWant{code: 200, itemErr: msg, timedOut: ctItems, batchItems: ctItems, itemErrors: ctItems}
				case kindSub:
					want.subItems = ctItems // admitted, then the frame fails as one
				}
				ctDo(t, rt, cs.ts.URL, ctVariant{timeout: "1", mode: server.ModeExact}, want)
			})
		})
	}
}
