// White-box tests of the serving policy internals: the mid-flight
// sketch fallback, the admission state machine, and the wire helpers.
package server

import (
	"context"
	"errors"
	"net/url"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/workload"
)

// tinySnap builds a minimal snapshot (16x16 table, 4x4 tiles) for
// driving the op functions directly.
func tinySnap(t *testing.T) *Snapshot {
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

// TestMidflightSketchFallback drives the op functions with a context
// that is already expired: the exact attempt fails mid-computation, and
// an auto query substitutes the O(k) sketch answer on a detached
// context instead of failing — the true mid-flight degradation path.
func TestMidflightSketchFallback(t *testing.T) {
	sn := tinySnap(t)
	s := &Server{cfg: Config{}}
	s.cfg.setDefaults()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	vals := url.Values{"a": {"0,0,4,4"}, "b": {"4,4,4,4"}}
	res, err := s.opDistance(ctx, sn, vals, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto distance under expired ctx: %v, want sketch fallback", err)
	}
	dr := res.(*DistanceResult)
	if dr.Tier != TierSketch || !dr.Degraded || dr.Reason != ReasonDeadline {
		t.Errorf("fallback answer: %+v, want degraded sketch (reason deadline)", dr)
	}

	// mode=exact must fail instead of silently degrading.
	if _, err := s.opDistance(ctx, sn, vals, ModeExact, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("exact distance under expired ctx: %v, want DeadlineExceeded", err)
	}

	qv := url.Values{"q": {"4,4,4,4"}}
	res, err = s.opNearest(ctx, sn, qv, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto nearest under expired ctx: %v, want sketch fallback", err)
	}
	if nr := res.(*NearestResult); nr.Tier != TierSketch || nr.Reason != ReasonDeadline {
		t.Errorf("nearest fallback: %+v", nr)
	}

	res, err = s.opAssign(ctx, sn, qv, ModeAuto, "")
	if err != nil {
		t.Fatalf("auto assign under expired ctx: %v, want sketch fallback", err)
	}
	if ar := res.(*AssignResult); ar.Tier != TierSketch || ar.Reason != ReasonDeadline {
		t.Errorf("assign fallback: %+v", ar)
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

// TestAdmit exercises the admission state machine without HTTP: slots,
// the bounded queue, shedding, and queue-deadline expiry.
func TestAdmit(t *testing.T) {
	s := &Server{cfg: Config{MaxInflight: 1, MaxQueue: 1}}
	s.cfg.setDefaults()
	s.cfg.MaxInflight, s.cfg.MaxQueue = 1, 1
	s.sem = make(chan struct{}, 1)

	release, st := s.admit(context.Background(), 1)
	if st != admitOK {
		t.Fatalf("first admit: %v, want admitOK", st)
	}
	if got := s.occupancy(); got != 0.5 {
		t.Errorf("occupancy with 1/2 used: %v, want 0.5", got)
	}

	// The slot is held: a deadline-bearing arrival waits in the queue
	// until its deadline expires.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, st := s.admit(ctx, 1); st != admitTimeout {
		t.Errorf("queued past deadline: %v, want admitTimeout", st)
	}
	if q := s.Queued(); q != 0 {
		t.Errorf("queue count after expiry: %d, want 0", q)
	}

	// Queue full (simulated via a parked goroutine) -> shed.
	parked := make(chan admitStatus, 1)
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	go func() {
		_, st := s.admit(pctx, 1)
		parked <- st
	}()
	for s.Queued() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, st := s.admit(context.Background(), 1); st != admitShed {
		t.Errorf("arrival beyond queue: %v, want admitShed", st)
	}

	release()
	if st := <-parked; st != admitOK {
		t.Errorf("parked arrival after release: %v, want admitOK", st)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"},
		{1500 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
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
