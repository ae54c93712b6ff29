// Tests of the shard-side scatter-gather surface: /v1/shardinfo and
// the sketch sub-query frames a coordinator fans out on held
// connections, plus the generation-echo invariant that keeps a fan-out
// consistent while Swap runs concurrently.
package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// subConn is a frame connection to a shard, held as a coordinator holds
// one, spoken byte by byte rather than through internal/client.
type subConn struct {
	c  net.Conn
	br *bufio.Reader
}

// dialSub opens a frame connection to the server at base.
func dialSub(t testing.TB, base string) *subConn {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial %s: %v", base, err)
	}
	t.Cleanup(func() { c.Close() })
	fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		server.SubUpgradePath, server.SubUpgradeProtocol)
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != server.SubUpgradeProtocol {
		t.Fatalf("upgrade: %v, %+v", err, resp)
	}
	return &subConn{c: c, br: br}
}

// envelope is the request envelope of op around payload.
func envelope(op byte, timeoutMS int32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{op}, uint32(timeoutMS))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// exchange writes one request and reads its answer. status is 0 when the
// shard closed the connection instead of answering.
func (sc *subConn) exchange(t testing.TB, req []byte) (status, retryAfter int, body []byte) {
	t.Helper()
	status, retryAfter, body, err := sc.roundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return status, retryAfter, body
}

// roundTrip is exchange for a goroutine other than the test's.
func (sc *subConn) roundTrip(req []byte) (status, retryAfter int, body []byte, err error) {
	sc.c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := sc.c.Write(req); err != nil {
		return 0, 0, nil, fmt.Errorf("write: %w", err)
	}
	env := make([]byte, server.SubReplyLen)
	if _, err := io.ReadFull(sc.br, env); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return 0, 0, nil, nil
		}
		return 0, 0, nil, fmt.Errorf("answer envelope: %w", err)
	}
	status, retryAfter, n := server.ParseSubReply(env)
	body = make([]byte, n)
	if _, err := io.ReadFull(sc.br, body); err != nil {
		return 0, 0, nil, fmt.Errorf("%d-byte answer: %w", n, err)
	}
	return status, retryAfter, body, nil
}

// ask sends q as one frame of op, checks the status and, on a 200,
// decodes the answer frame with the decoder the client uses.
func (sc *subConn) ask(t testing.TB, op server.SubOp, q *server.SubQuery, wantCode int) *server.SubAnswer {
	t.Helper()
	req, err := q.AppendRequest(nil, op, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	code, _, body := sc.exchange(t, req)
	if code != wantCode {
		t.Fatalf("op %d: status %d, want %d (body %q)", op, code, wantCode, body)
	}
	if code != http.StatusOK {
		return nil
	}
	if int64(len(body)) > server.SubAnswerLimit(q) {
		t.Fatalf("op %d: %d-byte answer over the %d-byte limit of its query", op, len(body), server.SubAnswerLimit(q))
	}
	ans, err := server.DecodeSubAnswer(body, q)
	if err != nil {
		t.Fatalf("op %d: bad answer frame: %v", op, err)
	}
	return ans
}

// rectFrame is a frame of rectangle items at the fixture's k.
func rectFrame(t testing.TB, rects ...table.Rect) *server.SubQuery {
	return &server.SubQuery{K: snap(t).Pool().K(), Rects: rects}
}

func TestShardInfo(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})

	var info server.ShardInfo
	getJSON(t, ts.URL+"/v1/shardinfo", 200, &info)
	if !info.Ready {
		t.Fatalf("ready server reports Ready=false: %+v", info)
	}
	if info.BaseCol != 0 || info.Rows != 64 || info.Cols != 64 ||
		info.TileRows != 8 || info.TileCols != 8 || info.Tiles != 64 || info.Clusters != 4 {
		t.Errorf("geometry: %+v", info)
	}
	pool := sn.Pool()
	if info.P != pool.P() || info.K != pool.K() || info.Seed != pool.Seed() {
		t.Errorf("sketch params: got %+v, want p=%v k=%d seed=%d",
			info, pool.P(), pool.K(), pool.Seed())
	}
	if info.Generation == 0 {
		t.Errorf("generation not echoed: %+v", info)
	}
	if info.MaxInflight != 8 || info.MaxQueue != 32 {
		t.Errorf("admission sizes: %+v, want the defaults 8 and 32", info)
	}
}

func TestShardEndpointsWhileBooting(t *testing.T) {
	s, err := server.New(nil, server.Config{})
	if err != nil {
		t.Fatalf("New(nil): %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info server.ShardInfo
	getJSON(t, ts.URL+"/v1/shardinfo", 200, &info)
	if info.Ready {
		t.Errorf("booting server reports Ready=true")
	}
	req, err := (&server.SubQuery{K: 64, Rects: []table.Rect{{Rows: 8, Cols: 8}}}).AppendRequest(nil, server.SubSketch, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := dialSub(t, ts.URL)
	if code, retryAfter, body := sc.exchange(t, req); code != http.StatusServiceUnavailable || retryAfter != 1 {
		t.Errorf("booting sketch: status %d, Retry-After %d (%s)", code, retryAfter, body)
	}
	// The frame was skipped whole: the connection carries the next one.
	if code, _, body := sc.exchange(t, req); code != http.StatusServiceUnavailable {
		t.Errorf("second booting sketch: status %d (%s)", code, body)
	}
}

func TestSketchSubquery(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})

	rect := table.Rect{R0: 8, C0: 16, Rows: 8, Cols: 8}
	want, err := sn.Pool().Sketch(rect, nil)
	if err != nil {
		t.Fatalf("Pool.Sketch: %v", err)
	}
	sc := dialSub(t, ts.URL)
	res := sc.ask(t, server.SubSketch, rectFrame(t, rect), 200)
	if !floatsEq(res.Items[0].Sketch, want) {
		t.Fatalf("sketch %v, want %v", res.Items[0].Sketch, want)
	}
	if res.Generation == 0 {
		t.Errorf("generation not echoed")
	}

	sc.ask(t, server.SubSketch, rectFrame(t, table.Rect{Rows: 200, Cols: 200}), http.StatusBadRequest)

	// A frame answers its items in order, and an item the pool cannot
	// sketch (2 rows, below the smallest pooled extent) fails alone.
	compound := table.Rect{R0: 3, C0: 5, Rows: 12, Cols: 8}
	res = sc.ask(t, server.SubSketch, rectFrame(t, rect, table.Rect{Rows: 2, Cols: 8}, compound), 200)
	wantCompound, err := sn.Pool().Sketch(compound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEq(res.Items[0].Sketch, want) || !floatsEq(res.Items[2].Sketch, wantCompound) {
		t.Errorf("items around a failed one: %+v", res.Items)
	}
	if got := res.Items[1]; got.Err != "core: extent 2 below smallest pooled dyadic size 4" || got.Sketch != nil {
		t.Errorf("unsketchable item: %+v", got)
	}
}

// TestSketchNearestSubquery checks the fused owner hop a coordinator
// performs: a rectangle item comes back with its pool sketch and the
// answer the public /v1/nearest?mode=sketch route computes — the scan
// skipped the rectangle's own tile — while the same query as a sketch
// item, which a shard that does not own it scans, skips nothing.
func TestSketchNearestSubquery(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})

	q := table.Rect{R0: 16, C0: 24, Rows: 8, Cols: 8}
	qsk, err := sn.Pool().Sketch(q, nil)
	if err != nil {
		t.Fatalf("Pool.Sketch: %v", err)
	}
	var want server.NearestResult
	getJSON(t, fmt.Sprintf("%s/v1/nearest?q=%s&mode=sketch", ts.URL, server.FormatRect(q)), 200, &want)

	other := table.Rect{R0: 40, C0: 8, Rows: 8, Cols: 8}
	sc := dialSub(t, ts.URL)
	res := sc.ask(t, server.SubNearest, rectFrame(t, other, q), 200)
	if best := res.Items[1]; best.Tile != want.Tile || best.Distance != want.Distance || !floatsEq(best.Sketch, qsk) {
		t.Errorf("sub-query best (%d, %v) != /v1/nearest (%d, %v), or a sketch that is not the pool's",
			best.Tile, best.Distance, want.Tile, want.Distance)
	}

	res = sc.ask(t, server.SubNearest, &server.SubQuery{K: len(qsk), Sketches: qsk}, 200)
	if best := res.Items[0]; best.Tile != 2*8+3 || best.Distance != 0 || best.Sketch != nil {
		t.Errorf("sketch item of tile 19: %+v, want the tile itself at distance 0 and no lanes", best)
	}

	// A rectangle that is not one tile in size fails alone.
	res = sc.ask(t, server.SubNearest, rectFrame(t, table.Rect{Rows: 8, Cols: 16}, q), 200)
	if res.Items[0].Err != "query rect [0:8,0:16] must match the 8x8 tile size" || res.Items[1].Tile != want.Tile {
		t.Errorf("mis-sized item: %+v", res.Items)
	}
}

func TestSketchAssignSubquery(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})

	q := table.Rect{R0: 40, C0: 8, Rows: 8, Cols: 8}
	qsk, err := sn.Pool().Sketch(q, nil)
	if err != nil {
		t.Fatalf("Pool.Sketch: %v", err)
	}
	var want server.AssignResult
	getJSON(t, fmt.Sprintf("%s/v1/assign?q=%s&mode=sketch", ts.URL, server.FormatRect(q)), 200, &want)

	sc := dialSub(t, ts.URL)
	for name, query := range map[string]*server.SubQuery{
		"sketch":    {K: len(qsk), Sketches: qsk},
		"rectangle": rectFrame(t, q),
	} {
		best := sc.ask(t, server.SubAssign, query, 200).Items[0]
		if best.Cluster != want.Cluster || best.Medoid != want.Medoid || best.Tile != want.Medoid || best.Distance != want.Distance {
			t.Errorf("%s item: best (%d, %d, %v) != /v1/assign (%d, %d, %v)",
				name, best.Cluster, best.Medoid, best.Distance, want.Cluster, want.Medoid, want.Distance)
		}
	}
}

func TestSketchSubqueryValidation(t *testing.T) {
	sn := snap(t)
	_, ts := newTestServer(t, server.Config{})
	k := sn.Pool().K()

	// One connection carries every refusal and the answer after them.
	sc := dialSub(t, ts.URL)
	// Wrong lane count.
	sc.ask(t, server.SubNearest, &server.SubQuery{K: k - 1, Sketches: make([]float64, k-1)}, http.StatusBadRequest)
	// A lane that is not finite, in the second item of a frame.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		lanes := make([]float64, 2*k)
		lanes[k+3] = bad
		sc.ask(t, server.SubNearest, &server.SubQuery{K: k, Sketches: lanes}, http.StatusBadRequest)
	}
	// Sketch items on the op that takes rectangles only.
	sc.ask(t, server.SubSketch, &server.SubQuery{K: k, Sketches: make([]float64, k)}, http.StatusBadRequest)
	sc.ask(t, server.SubSketch, rectFrame(t, table.Rect{Rows: 8, Cols: 8}), http.StatusOK)
	// A whole frame's rectangles are checked item by item, as its batch
	// route checks them: only the item with one outside the table fails.
	tile, outside := table.Rect{Rows: 8, Cols: 8}, table.Rect{C0: 60, Rows: 8, Cols: 8}
	ans := sc.ask(t, server.SubWhole, &server.SubQuery{K: k, Rects: []table.Rect{tile, tile, tile, outside}, Route: "distance", Mode: server.ModeSketch}, http.StatusOK)
	if ans.Items[0].Err != "" || ans.Items[1].Err != "rect [0:8,60:68] outside table 64x64" {
		t.Errorf("whole frame with one rectangle outside the table: %+v", ans.Items)
	}
}

// TestHeldConnectionOutlivesWriteTimeout: the deadlines bound a frame,
// not the connection — one idle for four WriteTimeouts still answers.
func TestHeldConnectionOutlivesWriteTimeout(t *testing.T) {
	s, err := server.New(snap(t), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	server.SetFrameTimeouts(s, 50*time.Millisecond, 50*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sc := dialSub(t, ts.URL)
	q := rectFrame(t, table.Rect{Rows: 8, Cols: 8})
	sc.ask(t, server.SubSketch, q, http.StatusOK)
	time.Sleep(200 * time.Millisecond)
	sc.ask(t, server.SubSketch, q, http.StatusOK)
}

// TestShutdownClosesHeldConnections: http.Server.Shutdown neither closes
// nor waits for a hijacked connection, so Server.Shutdown does both — an
// idle frame connection closes at once, one with a frame in flight
// answers it first, and Shutdown returns nil only once none is held.
func TestShutdownClosesHeldConnections(t *testing.T) {
	gate := faultinject.NewGate()
	var gateOn atomic.Bool
	s, err := server.New(snap(t), server.Config{Hook: func(string) error {
		if gateOn.Load() {
			gate.Wait()
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck // http.ErrServerClosed
	base := "http://" + l.Addr().String()
	q := rectFrame(t, table.Rect{Rows: 8, Cols: 8})
	req, err := q.AppendRequest(nil, server.SubSketch, 0)
	if err != nil {
		t.Fatal(err)
	}
	idle, busy := dialSub(t, base), dialSub(t, base)
	idle.ask(t, server.SubSketch, q, http.StatusOK)
	gateOn.Store(true)
	answered := make(chan int, 1)
	go func() {
		code, _, _, err := busy.roundTrip(req)
		if err != nil {
			t.Error(err)
		}
		answered <- code
	}()
	gate.AwaitArrivals(1)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	idle.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.br.ReadByte(); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("the idle connection, Shutdown begun: %v, want it closed", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a frame in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.Open()
	if code := <-answered; code != http.StatusOK {
		t.Errorf("the frame in flight answered %d, want 200", code)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if code, _, _ := busy.exchange(t, req); code != 0 {
		t.Errorf("a frame after Shutdown answered %d", code)
	}
}

// TestShardGenerationConsistency is the Swap-vs-fan-out race check: a
// coordinator that reads sketches and bests while the shard republishes
// must be able to detect mixed snapshots through the generation echo.
// The invariant under test: a frame carries one generation, and every
// item in it — the sketch and the scan run with it — matches the
// snapshot that generation names: a handler resolves the (snapshot,
// generation) pair exactly once per frame, never once per item or field.
func TestShardGenerationConsistency(t *testing.T) {
	snapA := snap(t)
	tbB := workload.Random(64, 64, 100, 99) // different data, same geometry
	poolB, err := core.NewPool(tbB, 1, 64, 42, core.PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	snapB, err := server.BuildSnapshot(context.Background(), tbB, poolB, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
	})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}

	s, ts := newTestServer(t, server.Config{MaxInflight: 32})
	rects := []table.Rect{{R0: 0, C0: 0, Rows: 8, Cols: 8}, {R0: 24, C0: 40, Rows: 8, Cols: 8}, {R0: 56, C0: 8, Rows: 8, Cols: 8}}
	// want[0] is what snapA answers for each rectangle, want[1] snapB.
	type itemWant struct {
		sketch []float64
		tile   int
		dist   float64
	}
	var want [2][]itemWant
	for si, sn := range []*server.Snapshot{snapA, snapB} {
		for _, r := range rects {
			sk, err := sn.Pool().Sketch(r, nil)
			if err != nil {
				t.Fatalf("sketch: %v", err)
			}
			tile, d, err := sn.SketchNearest(context.Background(), r)
			if err != nil {
				t.Fatalf("SketchNearest: %v", err)
			}
			want[si] = append(want[si], itemWant{sk, tile, d})
		}
	}
	if floatsEq(want[0][0].sketch, want[1][0].sketch) {
		t.Fatal("fixture tables produced identical sketches; the test can't discriminate")
	}

	// Swaps alternate B, A, B, A...; generations are assigned
	// sequentially from this goroutine, so generation g0+i names
	// snapB when i is odd and snapA when i is even.
	g0 := s.Generation()
	const swaps = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= swaps; i++ {
			if i%2 == 1 {
				s.Swap(snapB)
			} else {
				s.Swap(snapA)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		op := server.SubSketch
		if w%2 == 1 {
			op = server.SubNearest
		}
		req, err := rectFrame(t, rects...).AppendRequest(nil, op, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := dialSub(t, ts.URL)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				code, _, body, err := sc.roundTrip(req)
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", code, body)
					return
				}
				res, err := server.DecodeSubAnswer(body, rectFrame(t, rects...))
				if err != nil {
					errs <- err
					return
				}
				wantItems := want[(res.Generation-g0)%2]
				for j, it := range res.Items {
					if !floatsEq(it.Sketch, wantItems[j].sketch) {
						errs <- fmt.Errorf("generation %d item %d answered with the other snapshot's sketch", res.Generation, j)
						return
					}
					if w%2 == 1 && (it.Tile != wantItems[j].tile || it.Distance != wantItems[j].dist) {
						errs <- fmt.Errorf("generation %d item %d: best (%d, %v) is not that snapshot's (%d, %v)",
							res.Generation, j, it.Tile, it.Distance, wantItems[j].tile, wantItems[j].dist)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := s.Generation(); got != g0+swaps {
		t.Fatalf("generation %d after %d swaps from %d", got, swaps, g0)
	}
}

func floatsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
