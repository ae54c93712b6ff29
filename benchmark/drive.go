package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/table"
)

// tally counts operations attempted and failed. A batch of n counts n.
// Failed means non-200, wrong tier tag, shed, timed out, degraded, or an
// answer that differs from its reference.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string // the first few, for the report
}

func (t *tally) add(attempted, failed int, why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += int64(attempted)
	t.failed += int64(failed)
	if failed > 0 && len(t.failures) < 8 {
		t.failures = append(t.failures, why)
	}
}

// pruneCounts sums the prune stats blocks of a pass's nearest answers.
// They are functions of (snapshot, query) alone, so they repeat exactly
// from pass to pass and from run to run of one seed.
type pruneCounts struct {
	Queries     int64 `json:"queries"`
	Coordinates int64 `json:"coordinates"` // lanes + cells evaluated
	Pruned      int64 `json:"pruned_coordinates"`
	Total       int64 `json:"coordinates_total"`
	Survivors   int64 `json:"screen_survivors"`
}

func (p *pruneCounts) add(st *server.PruneStats) {
	p.Queries++
	p.Coordinates += st.LanesEvaluated + st.CellsEvaluated
	p.Pruned += st.PrunedCoordinates
	p.Total += st.CoordinatesTotal
	p.Survivors += int64(st.ScreenSurvivors)
}

// roundResult is one pass over a workload's fixed work.
type roundResult struct {
	seconds  float64
	items    int
	lat      []float64 // every slot's time, ms, in slot order: throughput is taken from these
	head     []float64 // headline-op latencies, ms, in slot order: p50_ms is taken from these
	tail     []float64 // latencies p99_ms is taken from, ms
	latSumMS float64   // every request's latency, for the tracing overhead
	requests int
	mallocs  uint64 // heap objects allocated during the round (traced run only)
	prune    pruneCounts
	counters map[string]int64 // per-round counter deltas that must repeat
}

// instance is one workload bound to a seed and a size: it can build its
// fixture from scratch any number of times and drive rounds against it.
type instance interface {
	// build drops the previous fixture, builds a fresh one and returns
	// how long that took: one sample of setup_s.
	build() (float64, error)
	// prepare computes the reference answers against the live fixture.
	// It runs once, after the first build, outside every clock.
	prepare() error
	// warm brings the fixture to its steady state, unmeasured but checked.
	warm() error
	round() (*roundResult, error)
	accuracy() (accuracy, error)
	// layers adds the per-layer metrics of the traced run that come from
	// direct probes of the layers on scratch copies.
	layers(out map[string]float64) error
	counts() *tally
	stats() buildStats
	close()
}

// cycleInstance drives the three HTTP workloads: a fixed request cycle
// against a server or a coordinator.
type cycleInstance struct {
	sp   *spec
	sz   size
	seed uint64
	tr   *tracer

	tb   *table.Table
	reqs []*request
	fx   *fixture
	hc   *http.Client
	acc  accuracy
	tally
}

func newCycleInstance(sp *spec, sz size, seed uint64, tr *tracer) (*cycleInstance, error) {
	tb, err := callVolume(sz.rows, sz.cols, seed)
	if err != nil {
		return nil, err
	}
	return &cycleInstance{sp: sp, sz: sz, seed: seed, tr: tr, tb: tb, reqs: buildCycle(sp, sz, seed)}, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

func (in *cycleInstance) close() {
	if in.fx != nil {
		in.hc.CloseIdleConnections()
		in.fx.close()
		in.fx = nil
	}
}

func (in *cycleInstance) build() (float64, error) {
	in.close()
	collect()
	t0 := time.Now()
	fx, err := buildFixture(in.sp.fixture, in.tb, in.sz, in.seed, in.tr)
	if err != nil {
		return 0, err
	}
	in.fx, in.hc = fx, newHTTPClient()
	return time.Since(t0).Seconds(), nil
}

func (in *cycleInstance) prepare() error {
	orc, err := newOracle(in.tb, in.fx, in.sp.fixture, in.sz, in.seed)
	if err != nil {
		return err
	}
	coordinator := in.sp.fixture == "coord"
	for _, rq := range in.reqs {
		if err := orc.resolve(rq, coordinator); err != nil {
			return err
		}
	}
	in.acc, err = orc.accuracy(in.reqs, in.sp.approx)
	return err
}

func (in *cycleInstance) warm() error {
	_, err := in.round()
	return err
}

func (in *cycleInstance) accuracy() (accuracy, error) { return in.acc, nil }
func (in *cycleInstance) counts() *tally              { return &in.tally }
func (in *cycleInstance) stats() buildStats           { return in.fx.stats }

// round is one pass over the cycle by one closed-loop client: each
// request is sent as soon as the last is answered.
func (in *cycleInstance) round() (*roundResult, error) {
	res := &roundResult{items: cycleItems(in.reqs), requests: len(in.reqs)}
	start := time.Now()
	for _, rq := range in.reqs {
		ms, err := in.do(rq, &res.prune)
		if err != nil {
			return nil, err
		}
		res.latSumMS += ms
		res.lat = append(res.lat, ms)
		if rq.label == in.sp.headline {
			res.head = append(res.head, ms)
		}
	}
	res.seconds = time.Since(start).Seconds()
	res.tail = res.head
	return res, nil
}

// exchange is one HTTP request as the client saw it.
type exchange struct {
	req        int64 // trace request id; 0 when spans are not being recorded
	status     int
	data       []byte
	start, end time.Time
}

func (ex *exchange) ms() float64 { return ms(ex.end.Sub(ex.start)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// send issues one request and reads the whole answer: the latency a
// client observes runs up to the last body byte. While the tracer is
// recording, the request opens a new trace request and carries its id.
// An error is a transport failure and ends the run.
func send(hc *http.Client, tr *tracer, method, url string, body []byte) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, url, rd)
	if err != nil {
		return exchange{}, err
	}
	var ex exchange
	if tr.active() {
		ex.req = tr.begin()
		hr.Header.Set(reqHeader, strconv.FormatInt(ex.req, 10))
	}
	ex.start = time.Now()
	resp, err := hc.Do(hr)
	if err != nil {
		return ex, err
	}
	ex.data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end, ex.status = time.Now(), resp.StatusCode
	return ex, err
}

// do sends one request of the cycle, then decodes and checks every
// item. A wrong answer is counted and the run goes on.
func (in *cycleInstance) do(rq *request, prune *pruneCounts) (float64, error) {
	ex, err := send(in.hc, in.tr, rq.method, in.fx.url+rq.path, rq.body)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rq.label, err)
	}
	if ex.req != 0 {
		in.tr.add(span{Name: "client/" + rq.label, Req: ex.req, Items: len(rq.items)}, ex.start, ex.end)
		in.replay(rq, ex.req)
	}
	in.verify(rq, ex.status, ex.data, prune)
	return ex.ms(), nil
}

func (in *cycleInstance) verify(rq *request, status int, data []byte, prune *pruneCounts) {
	n := len(rq.items)
	if status != http.StatusOK {
		in.add(n, n, fmt.Sprintf("%s: HTTP %d: %s", rq.label, status, bytes.TrimSpace(data)))
		return
	}
	raws := []json.RawMessage{data}
	if rq.body != nil {
		var br server.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil || len(br.Items) != n {
			in.add(n, n, fmt.Sprintf("%s: bad batch answer (%d items, err %v)", rq.label, len(br.Items), err))
			return
		}
		raws = br.Items
	}
	failed, why := 0, ""
	for i, raw := range raws {
		var got answer
		if err := json.Unmarshal(raw, &got); err != nil {
			failed, why = failed+1, fmt.Sprintf("%s: %v", rq.label, err)
			continue
		}
		if msg := rq.want[i].check(rq.op, &got); msg != "" {
			failed, why = failed+1, fmt.Sprintf("%s %v: %s", rq.label, rq.items[i], msg)
		}
		if got.Prune != nil && rq.op == "nearest" {
			prune.add(got.Prune)
		}
	}
	in.add(n, failed, why)
}

// replay repeats a traced request's work as direct calls into the
// snapshot, right after the request, so that the handler's self time is
// what HTTP, JSON and admission cost on top. Only the single-server
// fixture has a snapshot the whole request runs against.
func (in *cycleInstance) replay(rq *request, req int64) {
	if in.sp.fixture != "server" {
		return
	}
	sn, ctx := in.fx.shards[0].snap, context.Background()
	name := "snapshot/" + rq.op + "_" + rq.mode
	if rq.body != nil {
		name = "snapshot/batch/" + rq.op + "_" + rq.mode
	}
	var call func(it item)
	switch rq.op + "/" + rq.mode {
	case "distance/" + server.ModeSketch:
		call = func(it item) { _, _ = sn.SketchDistance(it.a, it.b) }
	case "distance/" + server.ModeExact:
		call = func(it item) { _, _ = sn.ExactDistance(ctx, it.a, it.b, 0) }
	case "nearest/" + server.ModeSketch:
		call = func(it item) { _, _, _ = sn.SketchNearest(ctx, it.q) }
	case "nearest/" + server.ModeExact:
		call = func(it item) { _, _, _ = sn.ExactNearest(ctx, it.q, 0) }
	case "nearest/" + server.ModeAuto:
		call = func(it item) { _, _, _, _ = sn.ProgressiveNearest(ctx, it.q, 0, nil, 0) }
	case "nearest/" + server.ModePrune:
		plan, err := sn.Plan(server.DefaultPruneDelta)
		if err != nil {
			return
		}
		call = func(it item) { _, _, _, _ = sn.ProgressiveNearest(ctx, it.q, 0, plan, server.DefaultPruneEpsilon) }
	case "assign/" + server.ModeSketch:
		call = func(it item) { _, _, _, _ = sn.SketchAssign(ctx, it.q) }
	case "assign/" + server.ModeAuto:
		call = func(it item) { _, _, _, _, _ = sn.ProgressiveAssign(ctx, it.q, 0, nil, 0) }
	default:
		return
	}
	in.tr.replay(name, req, func() {
		for _, it := range rq.items {
			call(it)
		}
	})
}
