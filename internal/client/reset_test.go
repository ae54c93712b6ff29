// Regression tests for the mid-response-body failure classes: a 200
// whose body dies or arrives damaged is a transport casualty, not a bad
// query, and must retry. (The original classification treated an
// undecodable 200 body as permanent, so one connection reset during the
// response body failed a query that a single retry would have served.)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
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
			up := dialFrames(t, shard.URL)
			var calls atomic.Int64
			ts := fakeFrameShard(t, func(req []byte) (int, []byte, bool) {
				status, body := up.relay(t, req)
				if calls.Add(1) == 1 {
					body = damage(body)
				}
				return status, body, false
			})
			c, err := New(Config{BaseURL: ts.URL, Sleep: instant, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rects := []table.Rect{{Rows: 4, Cols: 4}, {R0: 4, C0: 8, Rows: 4, Cols: 4}}
			res, err := c.Sub(context.Background(), server.SubNearest, &server.SubQuery{K: frameK, Rects: rects}, 0)
			if err != nil {
				t.Fatalf("SketchNearest after a damaged answer frame: %v", err)
			}
			if len(res.Items) != 2 || len(res.Items[1].Sketch) != frameK || res.Items[1].Err != "" {
				t.Errorf("answer %+v, want two answered items of %d lanes", res.Items, frameK)
			}
			if got := calls.Load(); got != 2 {
				t.Errorf("shard saw %d frames, want 2 (damaged attempt + retry)", got)
			}
		})
	}
}

// frameK is the lane count of frameShard's pool.
const frameK = 8

// frameShard is a real shard over a small table, so the frames the tests
// damage are the frames a shard sends.
func frameShard(t *testing.T) *httptest.Server {
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
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// rawFrames is a frame connection spoken byte by byte: a middlebox's
// view of the carrier.
type rawFrames struct {
	c  net.Conn
	br *bufio.Reader
}

// dialFrames opens a frame connection to the shard at base.
func dialFrames(t *testing.T, base string) *rawFrames {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	io.WriteString(c, "GET "+server.SubUpgradePath+" HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: "+server.SubUpgradeProtocol+"\r\n\r\n")
	rf := &rawFrames{c: c, br: bufio.NewReader(c)}
	if resp, err := http.ReadResponse(rf.br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %+v", err, resp)
	}
	return rf
}

// relay sends a whole request (envelope and frame) and returns the
// answer's status and body.
func (rf *rawFrames) relay(t *testing.T, req []byte) (int, []byte) {
	if _, err := rf.c.Write(req); err != nil {
		t.Error(err)
		return 0, nil
	}
	env := make([]byte, server.SubReplyLen)
	if _, err := io.ReadFull(rf.br, env); err != nil {
		t.Error(err)
		return 0, nil
	}
	status, _, n := server.ParseSubReply(env)
	body := make([]byte, n)
	if _, err := io.ReadFull(rf.br, body); err != nil {
		t.Error(err)
	}
	return status, body
}

// fakeFrameShard accepts frame connections and answers every frame with
// what answer makes of it (envelope and frame), in an envelope of the
// answer's own length — a middlebox that damages an answer re-frames it.
// With hangUp the connection closes after the answer.
func fakeFrameShard(t *testing.T, answer func(req []byte) (status int, body []byte, hangUp bool)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + server.SubUpgradeProtocol + "\r\n\r\n")
		brw.Flush()
		for {
			env := make([]byte, 9)
			if _, err := io.ReadFull(brw, env); err != nil {
				return
			}
			req := append(env, make([]byte, binary.LittleEndian.Uint32(env[5:]))...)
			if _, err := io.ReadFull(brw, req[9:]); err != nil {
				return
			}
			status, body, hangUp := answer(req)
			out := binary.LittleEndian.AppendUint16(nil, uint16(status))
			out = binary.LittleEndian.AppendUint16(out, 0)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
			if _, err := c.Write(append(out, body...)); err != nil || hangUp {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts
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
		ts := fakeFrameShard(t, func([]byte) (int, []byte, bool) {
			calls.Add(1)
			return http.StatusOK, make([]byte, server.SubAnswerLimit(q)+1), false
		})
		c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 4, Sleep: instant, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Sub(context.Background(), server.SubSketch, q, 0)
		if err == nil || errors.Is(err, ErrBudgetExhausted) || !strings.Contains(err.Error(), "answer limit") {
			t.Errorf("err = %v, want a terminal over-limit error", err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("shard saw %d frames, want exactly 1", got)
		}
	})
}

// TestStaleConnectionResent: a shard that closed an idle held connection
// — restarted, shut down — is not a failed shard. The next frame meets
// the closed connection before any byte of an answer and goes out again
// on a fresh dial inside the same attempt, so one attempt is enough.
func TestStaleConnectionResent(t *testing.T) {
	up := dialFrames(t, frameShard(t).URL)
	var frames atomic.Int64
	ts := fakeFrameShard(t, func(req []byte) (int, []byte, bool) {
		status, body := up.relay(t, req)
		return status, body, frames.Add(1) == 1 // then closes the connection, idle
	})
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 1, Sleep: instant, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := &server.SubQuery{K: frameK, Rects: []table.Rect{{Rows: 4, Cols: 4}}}
	for i := 0; i < 2; i++ {
		if _, err := c.Sub(context.Background(), server.SubSketch, q, 0); err != nil {
			t.Fatalf("sub-query %d: %v", i, err)
		}
	}
	if got := frames.Load(); got != 2 {
		t.Errorf("shard answered %d frames, want 2", got)
	}
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
