package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/table"
)

// The batch handlers on the gated benchmark's fixture shape (call-volume
// table 256 × 1024, k = 64, one pooled 32 × 32 size, 8 clusters), timed
// without a socket: ServeHTTP into a writer that discards. The gate
// (make gate) judges a serving-path change; these say in a second where
// inside the handler its time went.
var benchFix struct {
	once sync.Once
	srv  *server.Server
	err  error
}

func benchServer(b *testing.B) *server.Server {
	benchFix.once.Do(func() {
		tb, err := callVolume()
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.srv, benchFix.err = server.New(buildSnap(b, tb, 1, 64, 32, 8, 1), server.Config{})
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.srv
}

// discard is a ResponseWriter that keeps the status and drops the body.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// benchBatch posts bodies round-robin to path and reports µs per item.
func benchBatch(b *testing.B, path string, items int, bodies [][]byte) {
	h := benchServer(b).Handler()
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	w := &discard{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		rd.Reset(body)
		req.ContentLength = int64(len(body))
		clear(w.h)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("%s answered %d", path, w.code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*items), "µs/item")
}

// BenchmarkBatchDistanceHandler: 64 sketch-tier distances between
// uniformly random compound rectangles (sides in [33, 63]), 32 distinct
// bodies so the 8 × 64 positions of a request are cold when it returns.
func BenchmarkBatchDistanceHandler(b *testing.B) {
	const items = 64
	rng := rand.New(rand.NewPCG(21, 21))
	bodies := make([][]byte, 32)
	for i := range bodies {
		req := server.BatchRequest{Mode: server.ModeSketch}
		for j := 0; j < items; j++ {
			h, w := 33+rng.IntN(31), 33+rng.IntN(31)
			draw := func() string {
				return server.FormatRect(table.Rect{R0: rng.IntN(256 - h + 1), C0: rng.IntN(1024 - w + 1), Rows: h, Cols: w})
			}
			req.Items = append(req.Items, server.BatchItem{A: draw(), B: draw()})
		}
		bodies[i], _ = json.Marshal(&req)
	}
	benchBatch(b, "/v1/batch/distance", items, bodies)
}

// BenchmarkBatchAssignHandler: 16 sketch-tier assigns of grid tiles.
func BenchmarkBatchAssignHandler(b *testing.B) {
	const items = 16
	rng := rand.New(rand.NewPCG(22, 22))
	bodies := make([][]byte, 32)
	for i := range bodies {
		req := server.BatchRequest{Mode: server.ModeSketch}
		for j := 0; j < items; j++ {
			q := table.Rect{R0: 32 * rng.IntN(8), C0: 32 * rng.IntN(32), Rows: 32, Cols: 32}
			req.Items = append(req.Items, server.BatchItem{Q: server.FormatRect(q)})
		}
		bodies[i], _ = json.Marshal(&req)
	}
	benchBatch(b, "/v1/batch/assign", items, bodies)
}
