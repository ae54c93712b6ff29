// Regression tests for the mid-response-body failure classes: a 200
// whose body dies or arrives damaged is a transport casualty, not a bad
// query, and must retry. (The original classification treated an
// undecodable 200 body as permanent, so one connection reset during the
// response body failed a query that a single retry would have served.)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// resetTransport wraps the body of the first response in a
// faultinject.SlowReader that returns ErrInjected on its FailAt-th
// Read — the client sees a connection die mid-body after delivering a
// valid prefix. Later responses pass through untouched.
type resetTransport struct {
	base   http.RoundTripper
	failAt int
	calls  atomic.Int64
}

type readCloser struct {
	io.Reader
	io.Closer
}

func (rt *resetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.base.RoundTrip(req)
	if err != nil || rt.calls.Add(1) > 1 {
		return resp, err
	}
	resp.Body = &readCloser{
		Reader: &faultinject.SlowReader{R: resp.Body, Chunk: 4, FailAt: rt.failAt},
		Closer: resp.Body,
	}
	return resp, nil
}

func TestResetMidBodyRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		okDistance(w)
	}))
	defer ts.Close()

	rt := &resetTransport{base: http.DefaultTransport, failAt: 3}
	c, err := New(Config{
		BaseURL: ts.URL,
		HTTP:    &http.Client{Transport: rt},
		Sleep:   instant, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Distance(context.Background(), testRects.a, testRects.b, "")
	if err != nil {
		t.Fatalf("Distance after mid-body reset: %v", err)
	}
	if res.Distance != 42 {
		t.Errorf("distance %v, want 42", res.Distance)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2 (reset attempt + retry)", got)
	}
}

func TestTruncated200BodyRetries(t *testing.T) {
	// A structurally valid HTTP response whose JSON was cut mid-object
	// (truncating middlebox): ReadAll succeeds, Unmarshal fails. This is
	// the exact path the permanent-classification bug lived on.
	t.Run("json", func(t *testing.T) {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				io.WriteString(w, `{"distance": 4`)
				return
			}
			okDistance(w)
		}))
		defer ts.Close()

		c, err := New(Config{BaseURL: ts.URL, Sleep: instant, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Distance(context.Background(), testRects.a, testRects.b, "")
		if err != nil {
			t.Fatalf("Distance after truncated 200 body: %v", err)
		}
		if res.Distance != 42 {
			t.Errorf("distance %v, want 42", res.Distance)
		}
		if got := calls.Load(); got != 2 {
			t.Errorf("server saw %d calls, want 2 (truncated attempt + retry)", got)
		}
	})

	// The sub-query answer frame has no closing brace to miss: what tells
	// a damaged frame from a whole one is its length against its header
	// and its header against the query. Each way of being wrong re-asks.
	shard := frameShard(t)
	for name, damage := range map[string]func(frame []byte) []byte{
		"frame cut short":     func(f []byte) []byte { return f[:len(f)-1] },
		"frame cut in header": func(f []byte) []byte { return f[:20] },
		"frame over-long":     func(f []byte) []byte { return append(f, 0) },
		"frame of another n":  func(f []byte) []byte { f[8]++; return f },
		"frame of another k":  func(f []byte) []byte { f[12]--; return f },
		"not a frame":         func([]byte) []byte { return []byte(`{"sketch":[1,2,3]}`) },
	} {
		t.Run(name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				shard.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				if calls.Add(1) == 1 {
					body = damage(body)
				}
				w.Write(body)
			}))
			defer ts.Close()
			c, err := New(Config{BaseURL: ts.URL, Sleep: instant, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rects := []table.Rect{{Rows: 4, Cols: 4}, {R0: 4, C0: 8, Rows: 4, Cols: 4}}
			res, err := c.SketchNearest(context.Background(), &server.SubQuery{K: frameK, Rects: rects}, 0)
			if err != nil {
				t.Fatalf("SketchNearest after a damaged answer frame: %v", err)
			}
			if len(res.Items) != 2 || len(res.Items[1].Sketch) != frameK || res.Items[1].Err != "" {
				t.Errorf("answer %+v, want two answered items of %d lanes", res.Items, frameK)
			}
			if got := calls.Load(); got != 2 {
				t.Errorf("server saw %d calls, want 2 (damaged attempt + retry)", got)
			}
		})
	}
}

// frameK is the lane count of frameShard's pool.
const frameK = 8

// frameShard is a real shard handler over a small table, so the frames
// the tests damage are the frames a shard sends.
func frameShard(t *testing.T) http.Handler {
	t.Helper()
	tb := workload.Random(16, 16, 10, 3)
	pool, err := core.NewPool(tb, 1, frameK, 7, core.PoolOptions{MinLogRows: 2, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := server.BuildSnapshot(context.Background(), tb, pool, server.SnapshotConfig{TileRows: 4, TileCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(sn, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

// TestOverLimit200BodyNotRetried: an answer longer than the client reads
// is not an answer damaged in transit. Asking again gets the same bytes,
// so it fails once, naming the limit — it used to be truncated silently,
// fail to decode, and be re-asked until the budget ran out.
func TestOverLimit200BodyNotRetried(t *testing.T) {
	t.Run("json", func(t *testing.T) {
		body := []byte(`{"distance":42,"tier":"sketch","reason":"`)
		body = append(body, bytes.Repeat([]byte("x"), maxJSONAnswer+1-len(body)-2)...)
		body = append(body, `"}`...)
		if len(body) != maxJSONAnswer+1 || !json.Valid(body) {
			t.Fatalf("fixture body: %d bytes, valid=%v", len(body), json.Valid(body))
		}
		var calls atomic.Int64
		var answer atomic.Pointer[[]byte]
		answer.Store(&body)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Write(*answer.Load())
		}))
		defer ts.Close()
		c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 4, Sleep: instant, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Distance(context.Background(), testRects.a, testRects.b, "")
		if err == nil || errors.Is(err, ErrBudgetExhausted) || !strings.Contains(err.Error(), "1048576-byte answer limit") {
			t.Errorf("err = %v, want a terminal error naming the 1048576-byte limit", err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("server saw %d calls, want exactly 1", got)
		}

		// One byte shorter is an answer.
		atLimit := append(append([]byte{}, body[:len(body)-3]...), `"}`...)
		answer.Store(&atLimit)
		if res, err := c.Distance(context.Background(), testRects.a, testRects.b, ""); err != nil || res.Distance != 42 {
			t.Errorf("a %d-byte answer: %+v, %v", len(atLimit), res, err)
		}
	})

	// A sub-query's limit is the one its (n, k) implies, not the constant.
	t.Run("frame", func(t *testing.T) {
		q := &server.SubQuery{K: frameK, Rects: []table.Rect{{Rows: 4, Cols: 4}}}
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Write(make([]byte, server.SubAnswerLimit(q)+1))
		}))
		defer ts.Close()
		c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 4, Sleep: instant, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Sketch(context.Background(), q, 0)
		if err == nil || errors.Is(err, ErrBudgetExhausted) || !strings.Contains(err.Error(), "answer limit") {
			t.Errorf("err = %v, want a terminal over-limit error", err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("server saw %d calls, want exactly 1", got)
		}
	})
}

func TestPersistentlyDamagedBodyExhaustsBudget(t *testing.T) {
	// Damage on every attempt must still terminate: the retryable
	// classification ends in ErrBudgetExhausted, not an infinite loop or
	// a silent wrong answer.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"distance": 4`)
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, Sleep: instant, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Distance(context.Background(), testRects.a, testRects.b, "")
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}
