// White-box tests of the serving policy internals: the mid-flight
// sketch fallback, the admission state machine, and the wire helpers.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/workload"
)

// tinySnap builds a minimal snapshot (16x16 table, 4x4 tiles) for
// driving the op functions directly.
func tinySnap(t testing.TB) *Snapshot {
	t.Helper()
	tb := workload.Random(16, 16, 50, 3)
	pool, err := core.NewPool(tb, 1, 16, 2, core.PoolOptions{
		MinLogRows: 2, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 2,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	sn, err := BuildSnapshot(context.Background(), tb, pool, SnapshotConfig{
		TileRows: 4, TileCols: 4, Clusters: 2, Seed: 2,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	return sn
}

// TestMidflightSketchFallback drives the item runners' tier bodies with
// a context that is already expired, on the exact tier (reason ""): the
// exact attempt fails mid-computation, and an auto query substitutes
// the O(k) sketch answer on a detached context instead of failing — the
// true mid-flight degradation path.
func TestMidflightSketchFallback(t *testing.T) {
	sn := tinySnap(t)
	s := &Server{cfg: Config{}}
	s.cfg.setDefaults()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	a, b := table.Rect{R0: 0, C0: 0, Rows: 4, Cols: 4}, table.Rect{R0: 4, C0: 4, Rows: 4, Cols: 4}
	dr, err := s.distanceAt(ctx, sn, a, b, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto distance under expired ctx: %v, want sketch fallback", err)
	}
	if dr.Tier != TierSketch || !dr.Degraded || dr.Reason != ReasonDeadline {
		t.Errorf("fallback answer: %+v, want degraded sketch (reason deadline)", dr)
	}

	// mode=exact must fail instead of silently degrading.
	if _, err := s.distanceAt(ctx, sn, a, b, ModeExact, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("exact distance under expired ctx: %v, want DeadlineExceeded", err)
	}

	q := table.Rect{R0: 4, C0: 4, Rows: 4, Cols: 4}
	res, degraded, err := s.scanAt(ctx, sn, false, q, knobs{}, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto nearest under expired ctx: %v, want sketch fallback", err)
	}
	if nr := res.(*NearestResult); nr.Tier != TierSketch || nr.Reason != ReasonDeadline || !degraded {
		t.Errorf("nearest fallback: %+v", nr)
	}

	res, degraded, err = s.scanAt(ctx, sn, true, q, knobs{}, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto assign under expired ctx: %v, want sketch fallback", err)
	}
	if ar := res.(*AssignResult); ar.Tier != TierSketch || ar.Reason != ReasonDeadline || !degraded {
		t.Errorf("assign fallback: %+v", ar)
	}
}

// TestWrappedDeadlineIs504 is wire change 2 of the contract table: the
// pipeline maps a run error with errors.Is, so a deadline error answers
// 504 on every route however deep a scan wrapped it (the sub-query
// routes used to compare with == and answer 400, which a coordinator
// reads as "wrong everywhere" instead of an endpoint to hedge around).
func TestWrappedDeadlineIs504(t *testing.T) {
	s, err := New(tinySnap(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.serve("sketch/nearest", mShardSubqueries, func(http.ResponseWriter, *http.Request, *Snapshot, int64) (Request, error) {
		return Request{Weight: 1, Run: func(context.Context) (any, error) {
			return nil, fmt.Errorf("scanning tile 3: %w", context.DeadlineExceeded)
		}}, nil
	})
	before := ReadStats()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/nearest", nil))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "deadline expired mid-computation") {
		t.Errorf("wrapped deadline error: status %d body %s, want 504 mid-computation", rec.Code, rec.Body)
	}
	if d := ReadStats().TimedOut - before.TimedOut; d != 1 {
		t.Errorf("timedout advanced %d, want 1", d)
	}
}

func TestSketchFallbackPredicate(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	fctx, ok := sketchFallback(expired, context.DeadlineExceeded, "")
	if !ok {
		t.Fatal("auto-exact deadline error should fall back")
	}
	if fctx.Err() != nil {
		t.Errorf("fallback context carries %v, want detached (nil)", fctx.Err())
	}
	if _, ok := sketchFallback(expired, context.DeadlineExceeded, ReasonLoad); ok {
		t.Error("a query already on the sketch tier must not fall back again")
	}
	if _, ok := sketchFallback(expired, errors.New("bad rect"), ""); ok {
		t.Error("non-deadline errors must not fall back")
	}
}

// TestAdmit exercises a pipeline's admission state machine without HTTP: slots,
// the bounded queue, shedding, and queue-deadline expiry.
func TestAdmit(t *testing.T) {
	s := NewPipeline(Config{MaxInflight: 1, MaxQueue: 1}, maxTimeout, Counters{})

	release, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if got := s.occupancy(); got != 0.5 {
		t.Errorf("occupancy with 1/2 used: %v, want 0.5", got)
	}

	// The slot is held: a deadline-bearing arrival waits in the queue
	// until its deadline expires.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.admit(ctx, 1); err != errQueued {
		t.Errorf("queued past deadline: %v, want %v", err, errQueued)
	}
	if q := s.Queued(); q != 0 {
		t.Errorf("queue count after expiry: %d, want 0", q)
	}

	// Queue full (simulated via a parked goroutine) -> shed.
	parked := make(chan error, 1)
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	go func() {
		_, err := s.admit(pctx, 1)
		parked <- err
	}()
	for s.Queued() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := s.admit(context.Background(), 1); err != errShed {
		t.Errorf("arrival beyond queue: %v, want %v", err, errShed)
	}

	release()
	if err := <-parked; err != nil {
		t.Errorf("parked arrival after release: %v", err)
	}
}

// TestRetryAfterSeconds: a 503 carries the one Retry-After hint, one
// second, in its HTTP header and in a frame's envelope; no other status
// carries one.
func TestRetryAfterSeconds(t *testing.T) {
	p := NewPipeline(Config{}, maxTimeout, Counters{})
	for code, want := range map[int]int{http.StatusServiceUnavailable: 1, http.StatusBadRequest: 0, http.StatusGatewayTimeout: 0} {
		rec := httptest.NewRecorder()
		p.fail(answerTo{w: rec}, code, "refused")
		if got := rec.Header().Get("Retry-After"); (want == 0 && got != "") || (want != 0 && got != fmt.Sprint(want)) {
			t.Errorf("HTTP %d: Retry-After %q, want %d seconds", code, got, want)
		}
		var frame bytes.Buffer
		bw := bufio.NewWriter(&frame)
		p.fail(answerTo{f: &frameOut{bw: bw}}, code, "refused")
		bw.Flush()
		if status, got, _ := ParseSubReply(frame.Bytes()); status != code || got != want {
			t.Errorf("frame %d: envelope status %d, Retry-After %d, want %d", code, status, got, want)
		}
	}
}

func TestRectRoundTrip(t *testing.T) {
	r := table.Rect{R0: 3, C0: 5, Rows: 7, Cols: 9}
	got, err := ParseRect(FormatRect(r))
	if err != nil || got != r {
		t.Errorf("round trip: %v, %v", got, err)
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,5", "a,b,c,d"} {
		if _, err := ParseRect(bad); err == nil {
			t.Errorf("ParseRect(%q): want error", bad)
		}
	}
	if _, err := ParseRect(" 1, 2, 3, 4 "); err != nil {
		t.Errorf("ParseRect with spaces: %v", err)
	}
}

func TestParseRect(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    table.Rect
		wantErr string
	}{
		{in: "1,2,3,4", want: table.Rect{R0: 1, C0: 2, Rows: 3, Cols: 4}},
		{in: " 1 ,\t2, 3 ,4\n", want: table.Rect{R0: 1, C0: 2, Rows: 3, Cols: 4}},
		{in: "+1,-2,+3,-4", want: table.Rect{R0: 1, C0: -2, Rows: 3, Cols: -4}},
		{in: "", wantErr: `rect "": want row,col,height,width`},
		{in: "1,2,3", wantErr: `rect "1,2,3": want row,col,height,width`},
		{in: "1,2,3,4,5", wantErr: `rect "1,2,3,4,5": want row,col,height,width`},
		{in: "a,2,3", wantErr: `rect "a,2,3": want row,col,height,width`}, // the field count is checked first
		{in: "1,,3,4", wantErr: `rect "1,,3,4": strconv.Atoi: parsing "": invalid syntax`},
		{in: "1,2,3,", wantErr: `rect "1,2,3,": strconv.Atoi: parsing "": invalid syntax`},
		{in: "1,2 2,3,4", wantErr: `rect "1,2 2,3,4": strconv.Atoi: parsing "2 2": invalid syntax`},
		{in: "1,2,3,99999999999999999999", wantErr: `rect "1,2,3,99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
	} {
		got, err := ParseRect(tc.in)
		switch {
		case tc.wantErr != "":
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseRect(%q): err = %v, want %s", tc.in, err, tc.wantErr)
			}
		case err != nil || got != tc.want:
			t.Errorf("ParseRect(%q) = %v, %v, want %v", tc.in, got, err, tc.want)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := ParseRect(" 12, 345 ,+6,7"); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("ParseRect: %v allocs on the success path, want 0", a)
	}
}
