// Tests of the batched query path: the per-item bit-identity property
// (every batch item's bytes equal the single-query endpoint's bytes,
// at any worker count, including under mid-batch degradation),
// weighted admission, per-item error isolation, and counter deltas.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/wiretest"
)

// postBatch POSTs a BatchRequest and returns status, headers, and body.
func postBatch(t *testing.T, url string, req *server.BatchRequest) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal batch: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

func decodeBatch(t *testing.T, body []byte) *server.BatchResponse {
	t.Helper()
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("bad batch response %q: %v", body, err)
	}
	return &br
}

// singleBody fetches the single-query reference bytes for a batch item
// (the GET response body without its trailing newline).
func singleBody(t *testing.T, url string) []byte {
	t.Helper()
	code, _, body := wiretest.Get(t, url)
	if code != 200 {
		t.Fatalf("GET %s: status %d (body %s)", url, code, body)
	}
	return bytes.TrimSuffix(body, []byte("\n"))
}

// TestBatchBitIdentityProperty is the batched-path acceptance: for
// every batch endpoint and every mode, each response item must be
// byte-identical to the corresponding single-query GET answer, at
// workers 1, 2, and GOMAXPROCS. Batches are sized well under the
// degradation threshold so both paths answer from an unloaded server.
func TestBatchBitIdentityProperty(t *testing.T) {
	queries := []string{"8,8,8,8", "3,5,8,8", "48,17,8,8", "8,8,8,8"} // dup on purpose
	pairs := [][2]string{
		{"0,0,8,8", "16,16,8,8"},
		{"1,2,6,7", "30,9,6,7"},
		{"5,5,5,12", "5,40,5,12"},
		{"0,0,8,8", "16,16,8,8"}, // dup on purpose
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		_, ts := newTestServer(t, server.Config{Workers: workers, MaxInflight: 8, MaxQueue: 32})
		for _, mode := range []string{"", server.ModeExact, server.ModeSketch, server.ModePrune} {
			suffix := ""
			if mode != "" {
				suffix = "&mode=" + mode
			}

			if mode != server.ModePrune { // distance rejects prune
				req := &server.BatchRequest{Mode: mode}
				var want [][]byte
				for _, p := range pairs {
					req.Items = append(req.Items, server.BatchItem{A: p[0], B: p[1]})
					want = append(want, singleBody(t, ts.URL+"/v1/distance?a="+p[0]+"&b="+p[1]+suffix))
				}
				code, _, body := postBatch(t, ts.URL+"/v1/batch/distance", req)
				if code != 200 {
					t.Fatalf("workers=%d mode=%q batch distance: status %d (body %s)", workers, mode, code, body)
				}
				br := decodeBatch(t, body)
				if br.Served != len(pairs) || br.Failed != 0 || br.Degraded != 0 {
					t.Fatalf("workers=%d mode=%q distance counts: %+v", workers, mode, br)
				}
				for i := range pairs {
					if !bytes.Equal(br.Items[i], want[i]) {
						t.Errorf("workers=%d mode=%q distance item %d:\n  batch  %s\n  single %s",
							workers, mode, i, br.Items[i], want[i])
					}
				}
			}

			for _, op := range []string{"nearest", "assign"} {
				req := &server.BatchRequest{Mode: mode}
				var want [][]byte
				for _, q := range queries {
					req.Items = append(req.Items, server.BatchItem{Q: q})
					want = append(want, singleBody(t, ts.URL+"/v1/"+op+"?q="+q+suffix))
				}
				code, _, body := postBatch(t, ts.URL+"/v1/batch/"+op, req)
				if code != 200 {
					t.Fatalf("workers=%d mode=%q batch %s: status %d (body %s)", workers, mode, op, code, body)
				}
				br := decodeBatch(t, body)
				if br.Served != len(queries) || br.Failed != 0 {
					t.Fatalf("workers=%d mode=%q %s counts: %+v", workers, mode, op, br)
				}
				for i := range queries {
					if !bytes.Equal(br.Items[i], want[i]) {
						t.Errorf("workers=%d mode=%q %s item %d:\n  batch  %s\n  single %s",
							workers, mode, op, i, br.Items[i], want[i])
					}
				}
			}
		}
		ts.Close()
	}
}

// TestBatchMidFlightDegradation drives the per-item tier decision: a
// batch frozen by the item hook while the server saturates must answer
// its earlier items exact and its later items degraded — each side
// byte-identical to a single query under the same load.
func TestBatchMidFlightDegradation(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		gate1 := faultinject.NewGate() // freezes the probe batch before item 1
		gate2 := faultinject.NewGate() // parks the fat batch on its first item
		s, ts := newTestServer(t, server.Config{
			Workers: workers, MaxInflight: 2, MaxQueue: 8, // degrade at cost ≥ 7.5
			ItemHook: func(op string, item int) error {
				switch {
				case op == "nearest" && item == 1:
					gate1.Wait()
				case op == "assign" && item == 0:
					gate2.Wait()
				}
				return nil
			},
		})

		const q = "3,5,8,8"
		refExact := singleBody(t, ts.URL+"/v1/nearest?q="+q)

		// Probe batch: item 0 runs on an idle server, then the hook
		// freezes it before item 1.
		probeDone := make(chan []byte, 1)
		go func() {
			code, _, body := postBatch(t, ts.URL+"/v1/batch/nearest", &server.BatchRequest{
				Items: []server.BatchItem{{Q: q}, {Q: q}, {Q: q}},
			})
			if code != 200 {
				body = fmt.Appendf(nil, "status %d: %s", code, body)
			}
			probeDone <- body
		}()
		gate1.AwaitArrivals(1)

		// Saturate: a parked 8-item batch holds the second slot with
		// weight 8, pushing occupancy to (3+8)/10 ≥ DegradeAt.
		fatDone := make(chan struct{})
		go func() {
			defer close(fatDone)
			items := make([]server.BatchItem, 8)
			for i := range items {
				items[i] = server.BatchItem{Q: q}
			}
			postBatch(t, ts.URL+"/v1/batch/assign", &server.BatchRequest{Mode: server.ModeSketch, Items: items})
		}()
		gate2.AwaitArrivals(1)
		// Occupancy is now (3 + 8) / (2 + 8) ≥ DegradeAt, so the frozen
		// probe's remaining items degrade when released.
		if occ := float64(s.Inflight()); occ != 2 {
			t.Fatalf("workers=%d: %v slots held, want 2", workers, occ)
		}

		gate1.Open() // items 1, 2 now run saturated → degraded (load)
		probeBody := <-probeDone
		gate2.Open()
		<-fatDone

		var br server.BatchResponse
		if err := json.Unmarshal(probeBody, &br); err != nil {
			t.Fatalf("workers=%d: probe batch response %q: %v", workers, probeBody, err)
		}
		if len(br.Items) != 3 || br.Served != 3 || br.Failed != 0 {
			t.Fatalf("workers=%d: probe counts %+v (body %s)", workers, br, probeBody)
		}
		if !bytes.Equal(br.Items[0], refExact) {
			t.Errorf("workers=%d: item 0 (idle) != single exact answer:\n  batch  %s\n  single %s",
				workers, br.Items[0], refExact)
		}
		if br.Degraded != 2 {
			t.Errorf("workers=%d: degraded count %d, want 2 (body %s)", workers, br.Degraded, probeBody)
		}
		for i := 1; i <= 2; i++ {
			var nr server.NearestResult
			if err := json.Unmarshal(br.Items[i], &nr); err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, err)
			}
			if nr.Tier != server.TierSketch || !nr.Degraded || nr.Reason != server.ReasonLoad {
				t.Errorf("workers=%d item %d: tier=%q degraded=%v reason=%q, want sketch/true/load",
					workers, i, nr.Tier, nr.Degraded, nr.Reason)
			}
		}
		// Bit-identity of the degraded items against a single query that
		// degraded the same way: mode=sketch GET differs only in
		// reason=requested, so instead compare against each other — both
		// degraded items are the same query under the same tier, so they
		// must be byte-identical — and against the sketch-tier distance
		// value of a mode=sketch single.
		if !bytes.Equal(br.Items[1], br.Items[2]) {
			t.Errorf("workers=%d: degraded items differ:\n  %s\n  %s", workers, br.Items[1], br.Items[2])
		}
		var sk server.NearestResult
		getJSON(t, ts.URL+"/v1/nearest?q="+q+"&mode=sketch", 200, &sk)
		var d1 server.NearestResult
		if err := json.Unmarshal(br.Items[1], &d1); err != nil {
			t.Fatal(err)
		}
		if d1.Tile != sk.Tile || d1.Distance != sk.Distance || d1.Rect != sk.Rect {
			t.Errorf("workers=%d: degraded answer (%d, %s, %v) != sketch single (%d, %s, %v)",
				workers, d1.Tile, d1.Rect, d1.Distance, sk.Tile, sk.Rect, sk.Distance)
		}
		ts.Close()
	}
}

// TestBatchValidation covers the batch-level rejections and per-item
// error isolation: one bad item yields one errorBody, not a failed
// batch.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// Method and body-shape rejections.
	if code, _, _ := wiretest.Get(t, ts.URL+"/v1/batch/nearest"); code != 405 {
		t.Errorf("GET batch endpoint: status %d, want 405", code)
	}
	resp, err := http.Post(ts.URL+"/v1/batch/nearest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	for name, tc := range map[string]*server.BatchRequest{
		"empty":       {},
		"oversized":   {Items: make([]server.BatchItem, server.DefaultMaxBatch+1)},
		"bad mode":    {Mode: "wat", Items: []server.BatchItem{{Q: "8,8,8,8"}}},
		"bad timeout": {TimeoutMS: -1, Items: []server.BatchItem{{Q: "8,8,8,8"}}},
		"bad epsilon": {Mode: server.ModePrune, Epsilon: ptr(-1.0), Items: []server.BatchItem{{Q: "8,8,8,8"}}},
		"bad delta":   {Mode: server.ModePrune, Delta: ptr(1.5), Items: []server.BatchItem{{Q: "8,8,8,8"}}},
		"delta zero":  {Mode: server.ModePrune, Delta: ptr(0.0), Items: []server.BatchItem{{Q: "8,8,8,8"}}},
	} {
		if code, _, body := postBatch(t, ts.URL+"/v1/batch/nearest", tc); code != 400 {
			t.Errorf("%s: status %d, want 400 (body %s)", name, code, body)
		}
	}
	// Prune is rejected for distance batches, batch-level.
	if code, _, body := postBatch(t, ts.URL+"/v1/batch/distance", &server.BatchRequest{
		Mode: server.ModePrune, Items: []server.BatchItem{{A: "0,0,8,8", B: "16,16,8,8"}},
	}); code != 400 {
		t.Errorf("distance prune: status %d, want 400 (body %s)", code, body)
	}

	// Mixed batch: parse error, out-of-bounds rect, and two valid items.
	before := server.ReadStats()
	code, _, body := postBatch(t, ts.URL+"/v1/batch/nearest", &server.BatchRequest{
		Items: []server.BatchItem{
			{Q: "nope"},
			{Q: "8,8,8,8"},
			{Q: "1000,1000,8,8"},
			{Q: "3,5,8,8"},
		},
	})
	if code != 200 {
		t.Fatalf("mixed batch: status %d (body %s)", code, body)
	}
	br := decodeBatch(t, body)
	if br.Served != 2 || br.Failed != 2 {
		t.Fatalf("mixed counts: %+v", br)
	}
	for _, i := range []int{0, 2} {
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(br.Items[i], &eb); err != nil || eb.Error == "" {
			t.Errorf("item %d: want errorBody, got %s", i, br.Items[i])
		}
	}
	for _, i := range []int{1, 3} {
		var nr server.NearestResult
		if err := json.Unmarshal(br.Items[i], &nr); err != nil || nr.Rect == "" {
			t.Errorf("item %d: want NearestResult, got %s", i, br.Items[i])
		}
	}
	after := server.ReadStats()
	if d := after.BatchItems - before.BatchItems; d != 4 {
		t.Errorf("tabmine_batch_items advanced %d, want 4", d)
	}
	if d := after.BatchItemErrors - before.BatchItemErrors; d != 2 {
		t.Errorf("tabmine_batch_item_errors advanced %d, want 2", d)
	}
	if d := after.Served - before.Served; d != 2 {
		t.Errorf("tabmine_requests_served advanced %d, want 2", d)
	}
}

// TestBatchWeightedAdmission: a batch pays queue cost equal to its item
// count, so a batch too heavy for the remaining queue budget sheds with
// 503 + Retry-After even though a single query would still be admitted.
func TestBatchWeightedAdmission(t *testing.T) {
	gate := faultinject.NewGate()
	s, ts := newTestServer(t, server.Config{
		MaxInflight: 1, MaxQueue: 4,
		ItemHook: func(op string, item int) error {
			if op == "assign" {
				gate.Wait()
			}
			return nil
		},
	})

	// Park a batch in the only slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postBatch(t, ts.URL+"/v1/batch/assign", &server.BatchRequest{
			Mode: server.ModeSketch, Items: []server.BatchItem{{Q: "8,8,8,8"}},
		})
	}()
	gate.AwaitArrivals(1)

	// A 5-item batch exceeds the queue budget of 4 → shed.
	code, hdr, body := postBatch(t, ts.URL+"/v1/batch/nearest", &server.BatchRequest{
		Items: make([]server.BatchItem, 5),
	})
	if code != 503 {
		t.Fatalf("overweight batch: status %d, want 503 (body %s)", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	if s.Queued() != 0 {
		t.Errorf("queued cost %d after shed, want 0", s.Queued())
	}

	// A 4-item batch fits the queue budget exactly: it queues, then
	// completes once the slot frees.
	queuedDone := make(chan int, 1)
	go func() {
		code, _, _ := postBatch(t, ts.URL+"/v1/batch/nearest", &server.BatchRequest{
			Mode: server.ModeSketch,
			Items: []server.BatchItem{
				{Q: "8,8,8,8"}, {Q: "8,8,8,8"}, {Q: "8,8,8,8"}, {Q: "8,8,8,8"},
			},
		})
		queuedDone <- code
	}()
	wiretest.WaitFor(t, "batch to queue at weight 4", func() bool { return s.Queued() == 4 })

	// Now even a single query must shed: queue budget is exhausted.
	if code, _, body := wiretest.Get(t, ts.URL+"/v1/nearest?q=8,8,8,8"); code != 503 {
		t.Errorf("single behind full queue: status %d, want 503 (body %s)", code, body)
	}

	gate.Open()
	<-done
	if code := <-queuedDone; code != 200 {
		t.Errorf("queued batch after release: status %d, want 200", code)
	}
}

func ptr[T any](v T) *T { return &v }

// TestBatchBodyMatchesMarshalOracle is the whole-response differential
// of the wire codec: for 200 random batches — every route and mode, 1 to
// 40 items, valid rectangles beside out-of-table, unsketchable,
// mismatched and unparsable ones — the handler's bytes are json.Marshal
// of the BatchResponse built the way every handler built it before the
// codec (each item the single GET's body or its error body as a
// RawMessage, then the counts), and Content-Length is their length.
func TestBatchBodyMatchesMarshalOracle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxInflight: 8, MaxQueue: 64})
	rng := rand.New(rand.NewPCG(33, 0xb0d7))
	rect := func() string {
		switch rng.IntN(12) {
		case 0:
			return "4096,0,8,8" // outside the table
		case 1:
			return "not-a-rect"
		case 2:
			return "0,0,2,2" // below the pooled sizes
		case 3:
			return fmt.Sprintf("%d,%d,%d,%d", rng.IntN(30), rng.IntN(30), 5+rng.IntN(28), 5+rng.IntN(28)) // any size
		case 4, 5:
			return fmt.Sprintf("%d,%d,8,8", rng.IntN(57), rng.IntN(57)) // tile-sized, off the grid
		}
		return fmt.Sprintf("%d,%d,8,8", 8*rng.IntN(8), 8*rng.IntN(8)) // a grid tile
	}
	for trial := 0; trial < 200; trial++ {
		op := []string{"distance", "nearest", "assign"}[rng.IntN(3)]
		modes := []string{"", server.ModeExact, server.ModeSketch, server.ModePrune}
		if op == "distance" {
			modes = modes[:3]
		}
		mode := modes[rng.IntN(len(modes))]
		suffix := ""
		if mode != "" {
			suffix = "&mode=" + mode
		}
		req := &server.BatchRequest{Mode: mode}
		oracle := server.BatchResponse{}
		for n := 1 + rng.IntN(40); len(req.Items) < n; {
			it, u := server.BatchItem{Q: rect()}, ""
			if op == "distance" {
				it = server.BatchItem{A: rect(), B: rect()}
				u = ts.URL + "/v1/distance?a=" + url.QueryEscape(it.A) + "&b=" + url.QueryEscape(it.B) + suffix
			} else {
				u = ts.URL + "/v1/" + op + "?q=" + url.QueryEscape(it.Q) + suffix
			}
			req.Items = append(req.Items, it)
			code, _, body := wiretest.Get(t, u)
			oracle.Items = append(oracle.Items, bytes.TrimSuffix(body, []byte("\n")))
			if code == 200 {
				oracle.Served++
			} else {
				oracle.Failed++
			}
		}
		want, err := json.Marshal(&oracle)
		if err != nil {
			t.Fatal(err)
		}
		code, hdr, body := postBatch(t, ts.URL+"/v1/batch/"+op, req)
		if code != 200 || !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("trial %d, %s mode=%q: status %d\nhandler %soracle  %s", trial, op, mode, code, body, want)
		}
		if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("trial %d: Content-Length %q on a body of %d bytes", trial, cl, len(body))
		}
	}
}
