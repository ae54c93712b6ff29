// Fuzz target of the batch POST surface; the sub-query frames' targets
// are in conn_test.go.
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
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/server"
)

var (
	fuzzOnce sync.Once
	fuzzURL  string
)

// fuzzServer builds one shared server per fuzz worker process. The httptest server is deliberately never closed: it must
// outlive every f.Fuzz invocation, and the process owns it.
func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzOnce.Do(func() {
		s, err := server.New(snap(f), server.Config{MaxInflight: 8, MaxQueue: 32})
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
	// Oversized (past DefaultMaxBatch), empty, bad mode, negative timeout.
	f.Add("nearest", mk(server.BatchRequest{Items: make([]server.BatchItem, server.DefaultMaxBatch+1)}))
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
