package server_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/wiretest"
	"repro/internal/workload"
)

// fakeIngestor records bodies and can be switched into backlog or
// failure modes, exercising the handler's error mapping without a real
// ingestion pipeline behind it.
type fakeIngestor struct {
	mu     sync.Mutex
	bodies [][]byte
	err    error
}

func (f *fakeIngestor) IngestRecord(ctx context.Context, body io.Reader) (*server.IngestResult, error) {
	b, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	f.bodies = append(f.bodies, b)
	return &server.IngestResult{
		Label: fmt.Sprintf("d%03d", len(f.bodies)), Cols: 1,
		ColsTotal: len(f.bodies), Pending: 0,
	}, nil
}

func post(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

func TestIngestEndpoint(t *testing.T) {
	fi := &fakeIngestor{}
	_, ts := newTestServer(t, server.Config{Ingestor: fi})

	// Happy path: the body reaches the ingestor and the result echoes.
	code, _, body := post(t, ts.URL+"/v1/ingest", []byte("record-1"))
	if code != http.StatusOK {
		t.Fatalf("ingest status %d (body %s)", code, body)
	}
	if len(fi.bodies) != 1 || string(fi.bodies[0]) != "record-1" {
		t.Fatalf("ingestor saw %q", fi.bodies)
	}

	// Wrong method.
	code, _, _ = wiretest.Get(t, ts.URL+"/v1/ingest")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status %d, want 405", code)
	}

	// Backlog shedding: 503 with a Retry-After hint, like query shedding.
	fi.mu.Lock()
	fi.err = fmt.Errorf("pipeline: %w", server.ErrIngestBacklog)
	fi.mu.Unlock()
	code, hdr, _ := post(t, ts.URL+"/v1/ingest", []byte("record-2"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("backlogged ingest status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 ingest answer missing Retry-After")
	}

	// Any other ingest failure is the client's fault: 400.
	fi.mu.Lock()
	fi.err = fmt.Errorf("bad record framing")
	fi.mu.Unlock()
	code, _, _ = post(t, ts.URL+"/v1/ingest", []byte("record-3"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed ingest status %d, want 400", code)
	}
}

func TestIngestDisabled(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	code, _, _ := post(t, ts.URL+"/v1/ingest", []byte("x"))
	if code != http.StatusNotFound {
		t.Fatalf("ingest without an Ingestor: status %d, want 404", code)
	}
}

// The Publisher contract under fire: snapshots swap continuously while
// queries execute, and every answer must be fully consistent with
// exactly one generation — never a blend. The race detector (tier-1
// runs this package under -race) checks the memory side; the assertion
// here checks the answer side via determinism: each snapshot produces
// one exact byte sequence per query, so every response must equal one
// of the two expected bodies.
func TestPublishDuringQueryRace(t *testing.T) {
	tb2 := workload.Random(64, 64, 100, 99)
	pool2, err := core.NewPool(tb2, 1, 64, 42, core.PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := server.BuildSnapshot(context.Background(), tb2, pool2, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, server.Config{MaxInflight: 8})
	const q = "/v1/distance?a=0,0,8,8&b=8,8,8,8&mode=exact"

	// One reference body per generation.
	_, _, wantA := wiretest.Get(t, ts.URL+q)
	s.Publish(snap2)
	_, _, wantB := wiretest.Get(t, ts.URL+q)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture snapshots answer identically; race assertion would be vacuous")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, body := wiretest.Get(t, ts.URL+q)
				if code != http.StatusOK {
					t.Errorf("query during publish: status %d (body %s)", code, body)
					return
				}
				if !bytes.Equal(body, wantA) && !bytes.Equal(body, wantB) {
					t.Errorf("blended answer during publish: %s", body)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			s.Publish(snap(t))
		} else {
			s.Publish(snap2)
		}
	}
	close(stop)
	wg.Wait()
}
