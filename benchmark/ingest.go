package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/ingest"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
)

// ingest_live: a tabstore and an Ingester in segment mode publish into a
// server while a reader queries it. Client 1 pushes day records through
// POST /v1/ingest, sending the next as soon as the snapshot holding the
// previous one is live; a reader issues GET /v1/nearest?mode=sketch
// throughout, pausing readerThink after each answer so that the work
// it takes from the one busy thread is small and the same in every
// round.
//
// A round is one trim period of the sliding window. With a window of 8
// days over 32-column days the ingester trims back to 4 days every
// 5 pushes, and compaction (fanout 4) fires once inside each period, so
// every round holds the same append, seal, compact and trim work: the
// tabmine_seg_* and fft counter deltas of the rounds are compared and
// any round that differs is reported.

// warmDays brings a freshly resumed store to the start of a trim
// period: two pushes reach the first trim, and one whole period follows
// because that first trim drops more than the later ones.
const warmDays = 7

// readsPerDay is how many reads the single serial client of the traced
// run makes after each push.
const readsPerDay = 40

// readerThink is the reader's pause between an answer and its next
// query in the measured run.
const readerThink = 2 * time.Millisecond

// published is what the publisher tells the pusher about one publish.
type published struct {
	cols                  int // absolute high-water column of the snapshot
	entry, swap, swapDone time.Time
}

// livePublisher is the benchmark's server.Publisher in front of
// Server.Swap. Before a snapshot goes live it computes the reader's
// reference answers on it by direct Snapshot calls — the only way to
// check reads against a fixture that changes under them. That costs
// about a millisecond per publish, inside push → published.
type livePublisher struct {
	srv     *server.Server
	queries []table.Rect
	ch      chan published

	gen  atomic.Int64 // publishes completed
	mu   sync.RWMutex
	refs [][]reference // refs[g] = answers of the g-th published snapshot
	cur  *server.Snapshot
	err  error
}

func (p *livePublisher) Publish(sn *server.Snapshot) {
	entry := time.Now()
	refs := make([]reference, len(p.queries))
	for i, q := range p.queries {
		t, d, err := sn.SketchNearest(context.Background(), q)
		if err != nil {
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
		}
		refs[i] = reference{tier: server.TierSketch, tile: t, distance: d}
	}
	sn.Retain()
	p.mu.Lock()
	p.refs = append(p.refs, refs)
	old := p.cur
	p.cur = sn
	p.mu.Unlock()
	swap := time.Now()
	p.srv.Publish(sn)
	done := time.Now()
	p.gen.Add(1)
	if old != nil {
		old.Release()
	}
	p.ch <- published{cols: sn.Pool().HighWaterCols(), entry: entry, swap: swap, swapDone: done}
}

// current returns the live snapshot with a reference the caller drops.
func (p *livePublisher) current() *server.Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.cur.Retain()
	return p.cur
}

// matches reports whether got is query qi's answer on any snapshot that
// could have been live between generations g0 and g1 (the publisher
// bumps its count just after the swap, hence g1+1).
func (p *livePublisher) matches(qi int, g0, g1 int64, got *answer) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	why := "no snapshot live"
	for g := max(g0-1, 0); g <= g1 && g < int64(len(p.refs)); g++ {
		if why = p.refs[g][qi].check("nearest", got); why == "" {
			return ""
		}
	}
	return why
}

type ingestInstance struct {
	sz   size
	seed uint64
	tr   *tracer
	root string // scratch directory inside the checkout

	big     *table.Table // every day side by side
	records [][]byte     // wire form of each day past the pre-fill
	queries []table.Rect // the reader's query tiles
	paths   []string

	builds     int
	dir        string
	ing        *ingest.Ingester
	pub        *livePublisher
	hc         *http.Client
	url        string
	stops      []func()
	nextDay    int
	nextQ      int
	pendingMax int // largest backlog any ack reported

	// accuracy samples, one batch per distinct window (keyed by its base)
	sampled map[int]bool
	accErrs []float64
	accNear []nearestSample
	bstats  buildStats
	tally
}

func dayLabel(i int) string { return fmt.Sprintf("day-%05d", i) }

func (in *ingestInstance) day(i int) *table.Table {
	return in.big.Sub(table.Rect{R0: 0, C0: i * in.sz.dayCols, Rows: in.sz.dayRows, Cols: in.sz.dayCols})
}

func newIngestInstance(sz size, seed uint64, roundsPerBuild int, root string, tr *tracer) (*ingestInstance, error) {
	days := sz.prefillDays + warmDays + roundsPerBuild*sz.periodDays
	big, err := callVolume(sz.dayRows, days*sz.dayCols, seed)
	if err != nil {
		return nil, err
	}
	in := &ingestInstance{sz: sz, seed: seed, tr: tr, root: root, big: big, sampled: map[int]bool{}}
	for i := sz.prefillDays; i < days; i++ {
		var buf bytes.Buffer
		if err := ingest.WriteRecord(&buf, dayLabel(i), in.day(i), false); err != nil {
			return nil, err
		}
		in.records = append(in.records, buf.Bytes())
	}
	// The reader asks about the tiles every window of the trim cycle
	// holds, in a seeded order.
	for r := 0; r < sz.dayRows/tileSide; r++ {
		for c := 0; c < sz.readerTileCols; c++ {
			in.queries = append(in.queries, table.Rect{R0: r * tileSide, C0: c * tileSide, Rows: tileSide, Cols: tileSide})
		}
	}
	newRNG(seed, 0x1e5).Shuffle(len(in.queries), func(i, j int) { in.queries[i], in.queries[j] = in.queries[j], in.queries[i] })
	for _, q := range in.queries {
		vals := url.Values{"mode": {server.ModeSketch}, "q": {server.FormatRect(q)}}
		in.paths = append(in.paths, "/v1/nearest?"+vals.Encode())
	}
	return in, nil
}

func (in *ingestInstance) close() {
	if in.pub == nil {
		return
	}
	in.hc.CloseIdleConnections()
	for i := len(in.stops) - 1; i >= 0; i-- {
		in.stops[i]()
	}
	in.stops, in.pub, in.ing = nil, nil, nil
	_ = os.RemoveAll(in.dir) // scratch; a leftover is removed with the root at exit
}

func (in *ingestInstance) build() (float64, error) {
	in.close()
	collect()
	in.builds++
	in.dir = filepath.Join(in.root, fmt.Sprintf("store-%d", in.builds))
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return 0, err
	}
	// Pre-filling the store is input generation, outside the clock.
	st, err := tabstore.Open(in.dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i < in.sz.prefillDays; i++ {
		if err := st.AppendDay(dayLabel(i), in.day(i), false); err != nil {
			return 0, err
		}
	}

	corr0, spec0 := fft.CorrelationCount(), fft.TableSpectrumCount()
	t0 := time.Now()
	if st, err = tabstore.Open(in.dir); err != nil { // the boot a restart does
		return 0, err
	}
	pub := &livePublisher{queries: in.queries, ch: make(chan published, 4)}
	ing, err := ingest.New(st, ingest.Options{
		PoolP: 1, PoolK: in.sz.k, PoolSeed: poolSeed(in.seed), Pool: poolOptions(tileSide),
		WindowDays: in.sz.windowDays, SegmentDir: st.SegmentsDir(),
		Snapshot: snapshotConfig(in.sz, in.seed), Publisher: pub,
	})
	if err != nil {
		return 0, err
	}
	cfg := serverConfig
	cfg.Ingestor = ing
	srv, err := server.New(nil, cfg)
	if err != nil {
		return 0, err
	}
	pub.srv = srv
	u, stop, err := listen(in.tr.wrap("server.handler", srv.Handler()))
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := ing.Resume(ctx); err != nil {
		cancel()
		stop()
		return 0, err
	}
	first := <-pub.ch // Resume published the first snapshot
	setup := time.Since(t0).Seconds()

	ran := make(chan struct{})
	go func() {
		_ = ing.Run(ctx) // returns ctx.Err() once cancelled
		close(ran)
	}()
	in.stops = []func(){
		func() {
			ing.Close()
			if pub.cur != nil {
				pub.cur.Release()
			}
		},
		stop,
		func() { cancel(); <-ran },
	}
	in.ing, in.pub, in.url, in.hc = ing, pub, u, newHTTPClient()
	in.nextDay, in.nextQ = 0, 0
	in.bstats = buildStats{
		Correlations: fft.CorrelationCount() - corr0,
		TableSpectra: fft.TableSpectrumCount() - spec0,
	}
	if want := in.sz.prefillDays * in.sz.dayCols; first.cols != want {
		return 0, fmt.Errorf("first snapshot reaches column %d, want %d", first.cols, want)
	}
	return setup, nil
}

// prepare has nothing to precompute: the fixture changes with every
// push, so the publisher computes the reader's references per snapshot.
func (in *ingestInstance) prepare() error { return nil }

func (in *ingestInstance) warm() error {
	_, err := in.drive(warmDays)
	return err
}

func (in *ingestInstance) round() (*roundResult, error) {
	res, err := in.drive(in.sz.periodDays)
	if err != nil {
		return nil, err
	}
	return res, in.sampleAccuracy()
}

func (in *ingestInstance) counts() *tally    { return &in.tally }
func (in *ingestInstance) stats() buildStats { return in.bstats }

type counterSnap struct {
	seg  segstore.Stats
	corr int64
}

func readCounters() counterSnap {
	return counterSnap{seg: segstore.ReadStats(), corr: fft.CorrelationCount()}
}

func (c counterSnap) since(c0 counterSnap) map[string]int64 {
	return map[string]int64{
		"tabmine_seg_created_total":     c.seg.Created - c0.seg.Created,
		"tabmine_seg_reclaimed_total":   c.seg.Reclaimed - c0.seg.Reclaimed,
		"tabmine_seg_compactions_total": c.seg.Compactions - c0.seg.Compactions,
		"fft_correlations":              c.corr - c0.corr,
	}
}

// drive pushes days days. In the measured run the reader runs beside
// the pusher until the last day is live; in the traced run, whose spans
// nest by time, the pusher itself reads readsPerDay times after each
// push.
func (in *ingestInstance) drive(days int) (*roundResult, error) {
	serial := in.tr != nil
	if in.nextDay+days > len(in.records) {
		return nil, fmt.Errorf("ingest_live: out of generated days")
	}
	res := &roundResult{items: days}
	c0 := readCounters()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads []float64
	var readErr, pushErr error
	start := time.Now()
	if !serial {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && readErr == nil {
				var lat float64
				if lat, readErr = in.read(); readErr == nil {
					reads = append(reads, lat)
				}
				time.Sleep(readerThink)
			}
		}()
	}
	for d := 0; d < days && pushErr == nil; d++ {
		var pubMS float64
		pubMS, pushErr = in.push()
		res.head = append(res.head, pubMS)
		for i := 0; serial && i < readsPerDay && pushErr == nil; i++ {
			var lat float64
			if lat, pushErr = in.read(); pushErr == nil {
				reads = append(reads, lat)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	res.seconds = time.Since(start).Seconds()
	res.counters = readCounters().since(c0)
	res.lat, res.tail = res.head, reads
	res.requests = days + len(reads)
	for _, lat := range reads { // the fsync-bound acks would drown the tracing overhead
		res.latSumMS += lat
	}
	in.pub.mu.RLock()
	pubErr := in.pub.err
	in.pub.mu.RUnlock()
	return res, errors.Join(pushErr, readErr, pubErr)
}

// push sends the next day and waits until a snapshot holding it is
// live. It returns the push → published latency.
func (in *ingestInstance) push() (pubMS float64, err error) {
	dayIdx := in.sz.prefillDays + in.nextDay
	rec := in.records[in.nextDay]
	in.nextDay++
	ex, err := send(in.hc, in.tr, http.MethodPost, in.url+"/v1/ingest", rec)
	if err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	var got server.IngestResult
	wantCols := (dayIdx + 1) * in.sz.dayCols
	switch {
	case ex.status != http.StatusOK:
		in.add(1, 1, fmt.Sprintf("ingest: HTTP %d: %s", ex.status, bytes.TrimSpace(ex.data)))
		return 0, fmt.Errorf("ingest: day %d not accepted (HTTP %d)", dayIdx, ex.status)
	case json.Unmarshal(ex.data, &got) != nil || got.Label != dayLabel(dayIdx) || got.Cols != in.sz.dayCols || got.ColsTotal != wantCols:
		in.add(1, 1, fmt.Sprintf("ingest: ack %s, want label %s cols %d total %d", bytes.TrimSpace(ex.data), dayLabel(dayIdx), in.sz.dayCols, wantCols))
	default:
		in.add(1, 0, "")
	}
	in.pendingMax = max(in.pendingMax, got.Pending)
	var pub published
	for pub = range in.pub.ch {
		if pub.cols >= wantCols {
			break
		}
	}
	live := time.Now()
	if ex.req != 0 {
		in.tr.add(span{Name: "pusher/push_to_published", Req: ex.req}, ex.start, live)
		in.tr.add(span{Name: "client/ingest", Req: ex.req}, ex.start, ex.end)
		in.tr.add(span{Name: "ingest.ack_to_publish", Req: ex.req}, ex.end, pub.entry)
		in.tr.add(span{Name: "bench.reader_refs", Req: ex.req}, pub.entry, pub.swap)
		in.tr.add(span{Name: "server.swap", Req: ex.req}, pub.swap, pub.swapDone)
	}
	return ms(live.Sub(ex.start)), nil
}

// read issues the reader's next query and checks the answer against
// the snapshots that were live while it was in flight.
func (in *ingestInstance) read() (float64, error) {
	qi := in.nextQ % len(in.queries)
	in.nextQ++
	g0 := in.pub.gen.Load()
	ex, err := send(in.hc, in.tr, http.MethodGet, in.url+in.paths[qi], nil)
	g1 := in.pub.gen.Load()
	if err != nil {
		return 0, fmt.Errorf("read: %w", err)
	}
	if ex.req != 0 {
		in.tr.add(span{Name: "client/nearest/sketch", Req: ex.req}, ex.start, ex.end)
		sn := in.pub.current()
		in.tr.replay("snapshot/nearest_sketch", ex.req, func() {
			_, _, _ = sn.SketchNearest(context.Background(), in.queries[qi])
		})
		sn.Release()
	}
	var got answer
	switch {
	case ex.status != http.StatusOK:
		in.add(1, 1, fmt.Sprintf("read: HTTP %d: %s", ex.status, bytes.TrimSpace(ex.data)))
	case json.Unmarshal(ex.data, &got) != nil:
		in.add(1, 1, fmt.Sprintf("read: bad answer %s", bytes.TrimSpace(ex.data)))
	default:
		why := in.pub.matches(qi, g0, g1, &got)
		failed := 0
		if why != "" {
			failed, why = 1, fmt.Sprintf("read %v: %s", in.queries[qi], why)
		}
		in.add(1, failed, why)
	}
	return ex.ms(), nil
}

// window cuts the columns the live snapshot covers out of the
// benchmark's own copy of the days.
func (in *ingestInstance) window(sn *server.Snapshot) (*table.Table, error) {
	base := sn.Pool().BaseCol()
	_, cols := sn.Pool().TableDims()
	own := in.big.Sub(table.Rect{R0: 0, C0: base, Rows: in.sz.dayRows, Cols: cols})
	if !table.EqualApprox(own, sn.Table(), 0) {
		return nil, fmt.Errorf("ingest_live: the served window [%d,%d) differs from the pushed days", base, base+cols)
	}
	return own, nil
}

// sampleAccuracy measures the live snapshot, between rounds and off
// every clock: each tile of the window once as a sketch-tier nearest
// query against brute force over the pushed days, and the sketch
// distance of each query to its true nearest. Every build replays the
// same days, so a window is sampled the first time it is seen only.
func (in *ingestInstance) sampleAccuracy() error {
	sn := in.pub.current()
	defer sn.Release()
	base := sn.Pool().BaseCol()
	if in.sampled[base] {
		return nil
	}
	tb, err := in.window(sn)
	if err != nil {
		return err
	}
	for t := 0; t < numTiles(tb); t++ {
		q := gridTile(tb, t)
		got, _, err := sn.SketchNearest(context.Background(), q)
		if err != nil {
			return err
		}
		truth, exact := bruteNearest(tb, q)
		in.accNear = append(in.accNear, newNearestSample(tb, q, got, truth))
		if sd, err := sn.SketchDistance(q, gridTile(tb, truth)); err == nil && exact > 0 {
			in.accErrs = append(in.accErrs, math.Abs(sd-exact)/exact)
		}
	}
	in.sampled[base] = true
	return nil
}

// accuracy is over the windows live at the end of the measured rounds.
func (in *ingestInstance) accuracy() (accuracy, error) {
	return measureAccuracy(in.accErrs, in.accNear), nil
}
