// The wire contract of every query route: the six HTTP routes run
// wiretest's table, which a coordinator's test runs on its fleets too,
// here on a bare server; the three shard sub-query ops on a held frame
// connection join it as routes of the server's own, since no
// coordinator can be asked them. Each row pins the status, the
// Retry-After / Allow header, the exact error text and the counter
// deltas, and that a request refused for what it says is refused before
// admission: Config.Hook is not called, and a saturated server answers
// the same 400 / 405 instead of a 503.
//
// Rows whose name carries a "[wire N]" tag are intended wire changes and
// the only rows that fail at the commit before them:
//
//	[wire 1] a refusal that used to come after admission and the hook
//	         (single-GET mode / ε / δ, sub-query method and body)
//	         comes before them, as batch refusals already did;
//	[wire 3] the ε / δ error text of a batch is the GET text;
//	[wire 5] a batch body with anything but white space after its JSON
//	         value is refused, where the value used to be answered;
//	[wire 25] mode=prune runs the exact engine, so its prune block reads
//	         margin exact, no lane, nothing pruned, every candidate a
//	         survivor, and a pool at p < 0.3, whose sketch screen could
//	         not be planned (a 400), answers it.
//
// ([wire 2], a wrapped deadline error answering 504 on every route, is
// pinned white-box in internal_test.go; [wire 4] is the coordinator's.)
//
// The sub-query rows were written when the three ops took the binary
// n-item frame (frame.go) in place of one JSON item each, and moved to a
// held connection (conn.go) from their three POST routes: every row kept
// its status, Retry-After, error text and counter deltas, but for what a
// binary envelope cannot say the way a URL did. "bad timeout_ms" is a
// negative timeout_ms, which the frame refuses with the batch body's
// text; "wrong method [wire 1]" is an op no shard knows, which closes the
// connection unanswered, as a length past what a frame to the pool can
// have does; and an item kind is refused on the op's name, not a route's
// path. The three retired paths answer 404.
package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/table"
)

// serverTarget is the bare server of the contract over the shared
// fixture.
func serverTarget(t *testing.T) wiretest.Target {
	sn := snap(t)
	bare, err := server.BuildSnapshot(context.Background(), fixTb, sn.Pool(), server.SnapshotConfig{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	return wiretest.Server(func(t *testing.T, s wiretest.Setup) *server.Snapshot {
		switch {
		case s.NoClusters:
			return bare
		case s.Extreme:
			return extremeSnap(t)
		}
		return sn
	})
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

// frameVariant bends a sub-query frame: rects sends these rectangle
// items, lanes these sketch items (default: wiretest.Items rectangles on
// SubSketch, as many sketches on the scan ops); patch overwrites bytes
// of the encoded frame at an offset, and trim cuts (< 0) or pads (> 0)
// its tail. length, when set, is the envelope's length, sent with no
// frame after it. A request's Method, which a frame cannot carry, is an
// op no shard knows.
type frameVariant struct {
	rects   []table.Rect
	lanes   []float64
	patch   map[int][]byte
	trim    int
	length  uint32
	rawBody string
}

// Offsets of the request frame's header fields.
const (
	offVersion = 4
	offKind    = 5
	offN       = 8
	offK       = 12
)

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// frameRoute is the sub-query op sub as a route of the table: its
// request is an envelope and frame on a connection of its own.
func frameRoute(t *testing.T, name, op string, sub server.SubOp) wiretest.Route {
	rt := wiretest.Route{Name: name, Op: op, Kind: wiretest.Frame}
	rt.Send = func(t *testing.T, base string, v wiretest.Variant) wiretest.Answer {
		code, retryAfter, body := dialSub(t, base).exchange(t, encodeFrame(t, op, sub, v))
		a := wiretest.Answer{Code: code, Body: body, ContentLength: int64(len(body)), JSON: code != 0 && code != http.StatusOK}
		if retryAfter > 0 {
			a.RetryAfter = strconv.Itoa(retryAfter)
		}
		return a
	}
	rt.Refusals = frameRefusals(t, op, name)
	return rt
}

func encodeFrame(t *testing.T, op string, sub server.SubOp, v wiretest.Variant) []byte {
	t.Helper()
	fv, _ := v.Frame.(frameVariant)
	code := byte(sub)
	if v.Method != "" {
		code = 9
	}
	var ms int
	if v.Timeout != "" {
		var err error
		if ms, err = strconv.Atoi(v.Timeout); err != nil {
			t.Fatalf("frame timeout %q: %v", v.Timeout, err)
		}
	}
	if fv.length != 0 {
		env := envelope(code, int32(ms), nil)
		binary.LittleEndian.PutUint32(env[5:], fv.length)
		return env
	}
	tile := table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8}
	query := &server.SubQuery{K: snap(t).Pool().K(), Rects: fv.rects, Sketches: fv.lanes}
	switch {
	case fv.rects != nil || fv.lanes != nil:
	case op == "sketch":
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
	for off, b := range fv.patch {
		copy(body[off:], b)
	}
	if fv.trim < 0 {
		body = body[:len(body)+fv.trim]
	}
	body = append(body, make([]byte, max(fv.trim, 0))...)
	if fv.rawBody != "" {
		body = []byte(fv.rawBody)
	}
	return envelope(code, int32(ms), body)
}

// frameRefusals lists every by-content refusal of a sub-query op.
func frameRefusals(t *testing.T, op, name string) []wiretest.Refusal {
	k := snap(t).Pool().K()
	const badFrame = "bad sketch sub-query frame: "
	frameLen := 16 + wiretest.Items*8*k
	if op == "sketch" {
		frameLen = 16 + wiretest.Items*16
	}
	var out []wiretest.Refusal
	add := func(name string, fv frameVariant, code int, err string) {
		out = append(out, wiretest.Refusal{Name: name, V: wiretest.Variant{Frame: fv}, Code: code, Err: err})
	}
	out = append(out, wiretest.Refusal{Name: "bad timeout_ms", V: wiretest.Variant{Timeout: "-1"}, Code: 400, Err: "bad timeout_ms -1"})
	out = append(out, wiretest.Refusal{Name: "wrong method [wire 1]", V: wiretest.Variant{Method: http.MethodGet}})
	add("length past what a frame can have", frameVariant{length: uint32(16 + server.DefaultMaxBatch*8*k + 1)}, 0, "")
	add("malformed body [wire 1]", frameVariant{rawBody: "{not json"}, 400, badFrame+"9-byte body is shorter than the 16-byte header")
	add("bad magic", frameVariant{patch: map[int][]byte{0: []byte("JSON")}}, 400, badFrame+`magic "JSON", want "TMSQ"`)
	add("another frame version", frameVariant{patch: map[int][]byte{offVersion: {9}}}, 400,
		fmt.Sprintf(badFrame+"version 9, this shard speaks %d", server.SubFrameVersion))
	add("unknown item kind", frameVariant{patch: map[int][]byte{offKind: {7}}}, 400, badFrame+"item kind 7 on "+name)
	add("no items", frameVariant{patch: map[int][]byte{offN: u32(0)}}, 400, "empty batch")
	// A frame's bound is a batch request's.
	add("too many items", frameVariant{patch: map[int][]byte{offN: u32(server.DefaultMaxBatch + 1)}}, 400,
		"batch of 257 items exceeds the 256-item limit")
	add("hostile item count", frameVariant{patch: map[int][]byte{offN: u32(1<<32 - 1)}}, 400,
		"batch of 4294967295 items exceeds the 256-item limit")
	add("short sketch [wire 1]", frameVariant{patch: map[int][]byte{offK: u32(uint32(k - 1))}}, 400,
		fmt.Sprintf("sketch has %d entries, this shard's pool has k=%d", k-1, k))
	add("hostile k", frameVariant{patch: map[int][]byte{offK: u32(1<<32 - 1)}}, 400,
		fmt.Sprintf("sketch has 4294967295 entries, this shard's pool has k=%d", k))
	add("one byte short", frameVariant{trim: -1}, 400, fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen-1, frameLen))
	add("one byte long", frameVariant{trim: 1}, 400, fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen+1, frameLen))
	add("one item short", frameVariant{patch: map[int][]byte{offN: u32(wiretest.Items + 1)}}, 400,
		fmt.Sprintf(badFrame+"%d bytes, the header implies %d", frameLen, frameLen+(frameLen-16)/wiretest.Items))
	add("rect outside the table [wire 1]", frameVariant{rects: []table.Rect{{R0: 8, C0: 8, Rows: 8, Cols: 8}, {Rows: 200, Cols: 200}}}, 400,
		"item 1: rect [0:200,0:200] outside table 64x64")
	// A frame has no text to misparse; a bad rectangle is one no table holds.
	add("bad rect [wire 1]", frameVariant{rects: []table.Rect{{R0: -8, C0: 8, Rows: 8, Cols: 0}}}, 400,
		"item 0: rect [-8:0,8:8] outside table 64x64")
	if op == "sketch" {
		add("sketch items", frameVariant{lanes: make([]float64, k)}, 400, badFrame+"item kind 1 on sketch")
		return out
	}
	lanes := make([]float64, wiretest.Items*k)
	lanes[k+3] = math.NaN()
	add("non-finite lane", frameVariant{lanes: lanes}, 400, "item 1: sketch entry 3 is not finite")
	// What a number past float64's range is once it is bits: the JSON
	// form refused "1e309" in its parser, the frame refuses the lane.
	lanes = make([]float64, k)
	lanes[k-1] = math.Inf(1)
	add("overflowing sketch entry [wire 1]", frameVariant{lanes: lanes}, 400, fmt.Sprintf("item 0: sketch entry %d is not finite", k-1))
	return out
}

// checkPruneAnswer asks rt for mode=prune and for mode=exact on a new
// server of tg, each a valid request of the table, and holds the first
// to the second, item by item: the same tile or cluster and medoid and
// the same distance bits, tagged pruned, with the exact engine's prune
// block: margin exact, no sketch lane read, no candidate pruned, every
// candidate a survivor, the default knobs echoed.
func checkPruneAnswer(t *testing.T, rt wiretest.Route, tg wiretest.Target) {
	t.Helper()
	fr := tg.Start(t, wiretest.Setup{}, nil)
	type answer struct {
		Tile, Cluster, Medoid int
		Distance              float64
		Tier                  string
		Prune                 *server.PruneStats
	}
	answers := func(mode string) []answer {
		body := wiretest.Do(t, tg, fr, rt, wiretest.Variant{Mode: mode}, rt.OK(tg))
		raw := []json.RawMessage{body}
		if rt.Kind == wiretest.Batch {
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

func TestWireContract(t *testing.T) {
	sn := snap(t)
	srv := serverTarget(t)
	// The stable law at p = 0.25 has no analytic CDF.
	lowSn := buildSnap(t, fixTb, 0.25, 16, 8, 4, 1)
	lowP := wiretest.Server(func(*testing.T, wiretest.Setup) *server.Snapshot { return lowSn })

	// One carrier a message kind: the sub-queries' HTTP routes are gone,
	// and the route that holds a frame connection takes only the upgrade.
	t.Run("retired sub-query routes", func(t *testing.T) {
		_, ts := newTestServer(t, server.Config{})
		frame, err := (&server.SubQuery{K: sn.Pool().K(), Rects: []table.Rect{{Rows: 8, Cols: 8}}}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/sketch", "/v1/sketch/nearest", "/v1/sketch/assign"} {
			resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(frame))
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
		_, ts := newTestServer(t, server.Config{})
		const msg = "want GET with Connection: Upgrade and Upgrade: " + server.SubUpgradeProtocol
		for name, c := range map[string]struct{ method, connection, upgrade string }{
			"no upgrade":           {http.MethodGet, "", ""},
			"the first frame form": {http.MethodGet, "Upgrade", "tabmine-sub/1"},
			"another protocol":     {http.MethodGet, "Upgrade", "websocket"},
			"no Connection token":  {http.MethodGet, "keep-alive", server.SubUpgradeProtocol},
			"POST":                 {http.MethodPost, "Upgrade", server.SubUpgradeProtocol},
		} {
			req, err := http.NewRequest(c.method, ts.URL+server.SubUpgradePath, nil)
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

	wiretest.Suite{
		Targets: []wiretest.Target{srv},
		Routes: append(wiretest.Routes[:len(wiretest.Routes):len(wiretest.Routes)],
			frameRoute(t, "sketch", "sketch", server.SubSketch),
			frameRoute(t, "sketch/nearest", "nearest", server.SubNearest),
			frameRoute(t, "sketch/assign", "assign", server.SubAssign)),
		Extra: func(t *testing.T, rt wiretest.Route) {
			if rt.Kind == wiretest.Frame || rt.Op == "distance" {
				return
			}
			t.Run("mode=prune prune block [wire 25]", func(t *testing.T) { checkPruneAnswer(t, rt, srv) })
			t.Run("mode=prune at p < 0.3 answers [wire 25]", func(t *testing.T) { checkPruneAnswer(t, rt, lowP) })
		},
	}.Run(t)
}
