// Fuzz targets of the two POST surfaces: batch bodies and sub-query
// frames.
//
// FuzzBatchRequest drives arbitrary bytes through the batch endpoint —
// the exact surface POST /v1/batch/* exposes to the network. The
// invariants: never panic, never answer 5xx (admission is sized so an
// unloaded fuzz worker cannot shed), always answer valid JSON, and on
// 200 the per-item contract holds: one answer slot per request item,
// malformed items carried as {"error": ...} objects without failing
// the rest of the batch, and Served+Failed covering every slot.
package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/table"
)

var (
	fuzzOnce sync.Once
	fuzzURL  string
)

// fuzzServer builds one shared small-MaxBatch server per fuzz worker
// process. The httptest server is deliberately never closed: it must
// outlive every f.Fuzz invocation, and the process owns it.
func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzOnce.Do(func() {
		s, err := server.New(snap(f), server.Config{
			MaxBatch: 4, MaxInflight: 8, MaxQueue: 32,
		})
		if err != nil {
			panic(err)
		}
		fuzzURL = httptest.NewServer(s.Handler()).URL
	})
	return fuzzURL
}

func FuzzBatchRequest(f *testing.F) {
	base := fuzzServer(f)

	mk := func(req server.BatchRequest) []byte {
		b, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// Valid mixed batch: good items, an out-of-bounds rect, a parse
	// failure, and a duplicate of a good item.
	f.Add("nearest", mk(server.BatchRequest{Items: []server.BatchItem{
		{Q: "8,8,8,8"}, {Q: "4096,0,8,8"}, {Q: "not-a-rect"}, {Q: "8,8,8,8"},
	}}))
	f.Add("assign", mk(server.BatchRequest{Mode: server.ModeSketch, Items: []server.BatchItem{
		{Q: "0,0,8,8"}, {Q: ""},
	}}))
	f.Add("distance", mk(server.BatchRequest{Items: []server.BatchItem{
		{A: "0,0,8,8", B: "8,8,8,8"}, {A: "0,0,8,8"},
	}}))
	// Oversized (5 > MaxBatch 4), empty, bad mode, negative timeout.
	f.Add("nearest", mk(server.BatchRequest{Items: make([]server.BatchItem, 5)}))
	f.Add("nearest", mk(server.BatchRequest{}))
	f.Add("assign", mk(server.BatchRequest{Mode: "warp", Items: []server.BatchItem{{Q: "0,0,8,8"}}}))
	f.Add("distance", mk(server.BatchRequest{TimeoutMS: -1, Items: []server.BatchItem{{A: "0,0,8,8", B: "0,0,8,8"}}}))
	// Structurally hostile bodies.
	f.Add("nearest", []byte(`{"items": [{"q": 3}]}`))
	f.Add("nearest", []byte(`{"items": "nope"}`))
	f.Add("prune", []byte(`{}`))
	f.Add("nearest", []byte(`[`))
	f.Add("nearest", bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, op string, body []byte) {
		switch op {
		case "nearest", "assign", "distance":
		default:
			op = "nearest" // off-registry ops just probe the mux, not the handler
		}
		resp, err := http.Post(base+"/v1/batch/"+op, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("batch %s answered %d", op, resp.StatusCode)
		}
		var raw json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatalf("batch %s answered invalid JSON (status %d): %v", op, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return
		}

		// A 200 commits the handler to the per-item contract.
		var req server.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("server answered 200 to a body the decoder rejects: %v", err)
		}
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad BatchResponse: %v", err)
		}
		if len(br.Items) != len(req.Items) {
			t.Fatalf("%d answer slots for %d items", len(br.Items), len(req.Items))
		}
		if br.Served+br.Failed != len(br.Items) {
			t.Fatalf("served %d + failed %d != %d items", br.Served, br.Failed, len(br.Items))
		}
		failed := 0
		for i, item := range br.Items {
			var e struct {
				Error *string `json:"error"`
			}
			if err := json.Unmarshal(item, &e); err != nil {
				t.Fatalf("item %d is not a JSON object: %q", i, item)
			}
			if e.Error != nil {
				if *e.Error == "" {
					t.Fatalf("item %d carries an empty error", i)
				}
				failed++
			}
		}
		if failed != br.Failed {
			t.Fatalf("counted %d error items, response claims %d", failed, br.Failed)
		}
	})
}

// FuzzSubQueryFrame drives arbitrary bytes through the three sub-query
// routes — the surface a shard exposes to whatever reaches its port, not
// only to its coordinator. The invariants: never panic, never answer 5xx,
// never allocate more than a legal frame and its answer could need
// whatever n, k or length the bytes claim, and a 200 is an answer frame
// the client's decoder accepts for the query the bytes spell. chunked
// hides the body's length from the handler, the other way a frame can
// arrive.
func FuzzSubQueryFrame(f *testing.F) {
	sn := snap(f)
	s, err := server.New(sn, server.Config{MaxBatch: 4, MaxInflight: 8, MaxQueue: 32})
	if err != nil {
		f.Fatal(err)
	}
	k := sn.Pool().K()
	// The most a legal exchange holds: a full frame of sketches in, a full
	// frame of lanes out. The slack covers the handler's fixed costs.
	full := &server.SubQuery{K: k, Rects: make([]table.Rect, server.DefaultMaxBatch)}
	bound := uint64(16+server.DefaultMaxBatch*8*k) + uint64(server.SubAnswerLimit(full)) + 64<<10

	mk := func(q *server.SubQuery, patch func(frame []byte) []byte) []byte {
		frame, err := q.Encode()
		if err != nil {
			f.Fatal(err)
		}
		if patch != nil {
			frame = patch(frame)
		}
		return frame
	}
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	tile := table.Rect{R0: 8, C0: 8, Rows: 8, Cols: 8}
	rects := &server.SubQuery{K: k, Rects: []table.Rect{tile, {Rows: 2, Cols: 8}, {R0: 3, C0: 5, Rows: 12, Cols: 8}}}
	lanes := make([]float64, 2*k)
	for i := range lanes {
		lanes[i] = float64(i%7) - 3
	}
	sketches := &server.SubQuery{K: k, Sketches: lanes}
	nan := append([]float64{}, lanes...)
	nan[k+1] = math.NaN()
	for route := uint8(0); route < 3; route++ {
		for _, chunked := range []bool{false, true} {
			f.Add(route, chunked, []byte{})                                                    // empty
			f.Add(route, chunked, mk(rects, nil)[:16])                                         // header only
			f.Add(route, chunked, mk(rects, nil))                                              // valid: rectangles
			f.Add(route, chunked, mk(sketches, nil))                                           // valid: sketches
			f.Add(route, chunked, mk(rects, put32(8, 0)))                                      // n = 0
			f.Add(route, chunked, mk(rects, put32(8, server.DefaultMaxBatch+1)))               // n over the bound
			f.Add(route, chunked, mk(sketches, put32(8, 1<<32-1)))                             // hostile n
			f.Add(route, chunked, mk(sketches, put32(12, uint32(k+1))))                        // k off by one
			f.Add(route, chunked, mk(sketches, put32(12, 1<<32-1)))                            // hostile k
			f.Add(route, chunked, mk(&server.SubQuery{K: k, Sketches: nan}, nil))              // NaN lane
			f.Add(route, chunked, mk(sketches, func(b []byte) []byte { return b[:len(b)-1] })) // one short
			f.Add(route, chunked, mk(sketches, func(b []byte) []byte { return append(b, 0) })) // one long
			f.Add(route, chunked, []byte(`{"sketch":[1,2,3],"exclude":"0,0,8,8"}`))            // the JSON form this replaced
		}
	}

	paths := []string{"/v1/sketch", "/v1/sketch/nearest", "/v1/sketch/assign"}
	f.Fuzz(func(t *testing.T, route uint8, chunked bool, body []byte) {
		path := paths[int(route)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("%s allocated %d bytes for a %d-byte body; a legal exchange is bounded by %d", path, got, len(body), bound)
		}
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("%s answered %d with %q, want an error body", path, rec.Code, rec.Body)
			}
			return
		}
		// A 200 commits the shard to the frame contract: the header it
		// accepted names the query, and the answer decodes against it.
		if len(body) < 16 {
			t.Fatalf("%s answered 200 to %d bytes", path, len(body))
		}
		n := int(binary.LittleEndian.Uint32(body[8:]))
		q := &server.SubQuery{K: int(binary.LittleEndian.Uint32(body[12:]))}
		if body[5] == 0 {
			q.Rects = make([]table.Rect, n)
		} else {
			q.Sketches = make([]float64, n*q.K)
		}
		if want, _ := q.Encode(); len(want) != len(body) {
			t.Fatalf("%s answered 200 to a %d-byte frame whose header implies %d", path, len(body), len(want))
		}
		if int64(rec.Body.Len()) > server.SubAnswerLimit(q) {
			t.Fatalf("%s: %d-byte answer over the %d-byte limit of its query", path, rec.Body.Len(), server.SubAnswerLimit(q))
		}
		if _, err := server.DecodeSubAnswer(rec.Body.Bytes(), q); err != nil {
			t.Fatalf("%s answered 200 with a frame the client refuses: %v", path, err)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q on a %d-byte frame", path, cl, rec.Body.Len())
		}
	})
}
