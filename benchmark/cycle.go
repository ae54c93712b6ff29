package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"

	"repro/internal/server"
	"repro/internal/table"
)

// size fixes how much data and work a workload holds. The full size is
// calibrated once on the reference box (a pass of the cycle takes about
// 0.6 s there on one thread, a fixture build 1–3 s) and then frozen:
// nothing below adapts to measured speed. The smoke size keeps `go
// test` fast.
type size struct {
	rows, cols int // table
	k          int // sketch width
	clusters   int
	cycle      int // requests per pass of the cycle (HTTP workloads)

	// ingest_live: a day is dayRows × dayCols, the store is pre-filled
	// with prefillDays, the window is windowDays wide, a round pushes
	// periodDays (one trim period).
	dayRows, dayCols, prefillDays, windowDays, periodDays int
	// readerTiles bounds the reader's queries to the tiles every window
	// of the trim cycle holds.
	readerTileCols int
}

const (
	tileSide = 32 // tiles and the one pooled dyadic size are 32 × 32
	logTile  = 5
)

var (
	fullSize = size{
		rows: 256, cols: 1024, k: 64, clusters: 8,
		dayRows: 128, dayCols: 32, prefillDays: 16, windowDays: 8, periodDays: 5,
		readerTileCols: 4,
	}
	smokeSize = size{
		rows: 64, cols: 256, k: 16, clusters: 4, cycle: 60,
		dayRows: 64, dayCols: 32, prefillDays: 16, windowDays: 8, periodDays: 5,
		readerTileCols: 4,
	}
)

// Request mixes are shares of the cycle's request count. A batch of n
// is one request and n items.
type mix struct {
	op    string // distance | nearest | assign
	mode  string
	batch int     // 0 = single GET, n = POST batch of n
	share float64 // of requests
	rects string  // how the item's rectangles are drawn, see drawItem
}

// spec is one HTTP workload: which fixture, which traffic.
type spec struct {
	name     string
	why      string
	fixture  string // "server" | "coord"
	zipf     bool   // zipf(1.2) tile popularity instead of uniform
	cycle    int    // requests per pass at full size
	headline string // label of the op whose latency is p50_ms / p99_ms
	approx   string // the approximate nearest tier accuracy is measured on
	mix      []mix
}

var specs = []spec{
	{
		name: "serve_sketch", fixture: "server", zipf: true, cycle: 3600,
		why:      "O(k) sketch answers over HTTP: transport, admission and Pool.Sketch do the work, prune and exact do none",
		headline: "distance/sketch", approx: server.ModeSketch,
		mix: []mix{
			{op: "distance", mode: server.ModeSketch, share: 0.40, rects: "compound"},
			{op: "distance", mode: server.ModeSketch, batch: 64, share: 0.10, rects: "compound"},
			{op: "assign", mode: server.ModeSketch, share: 0.30, rects: "tile"},
			{op: "assign", mode: server.ModeSketch, batch: 16, share: 0.05, rects: "tile"},
			{op: "nearest", mode: server.ModeSketch, share: 0.15, rects: "tile"},
		},
	},
	{
		name: "serve_refine", fixture: "server", cycle: 1700,
		why:      "progressive prune and exact scans do the work and transport little; sketch-path changes must not move it",
		headline: "nearest/auto", approx: server.ModePrune,
		mix: []mix{
			{op: "nearest", mode: server.ModeAuto, share: 0.50, rects: "tile"},
			{op: "nearest", mode: server.ModePrune, share: 0.25, rects: "tile"},
			{op: "nearest", mode: server.ModeExact, share: 0.10, rects: "tile"},
			{op: "distance", mode: server.ModeExact, share: 0.10, rects: "large"},
			{op: "assign", mode: server.ModeAuto, share: 0.05, rects: "tile"},
		},
	},
	{
		name: "coord_fanout", fixture: "coord", zipf: true, cycle: 480,
		why:      "coordinator plan/merge, client sub-requests and shard sub-query handlers; a result waits for its slowest shard",
		headline: "nearest/auto", approx: server.ModeSketch,
		mix: []mix{
			{op: "nearest", mode: server.ModeAuto, share: 0.50, rects: "tile"},
			{op: "distance", mode: server.ModeAuto, share: 0.25, rects: "cross"},
			{op: "assign", mode: server.ModeAuto, share: 0.15, rects: "tile"},
			{op: "nearest", mode: server.ModeAuto, batch: 16, share: 0.10, rects: "tile"},
		},
	},
}

const ingestWhy = "incremental Pool.Append, segment seal/compact/trim and Server.Swap under a concurrent reader: writes beside reads"

// item is one query: a/b for distance, q for nearest and assign.
type item struct {
	a, b, q table.Rect
}

// request is one pre-built HTTP request of the cycle and the reference
// answers its items must match.
type request struct {
	op, mode string
	label    string // op/mode, with a "batch/" prefix for batches
	items    []item
	method   string
	path     string // path and query, relative to the base URL
	body     []byte
	want     []reference // filled by the oracle, one per item
}

// newRNG returns the generator of one named stream of the run seed.
func newRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// tilePicker draws grid tiles with the workload's popularity law.
type tilePicker struct {
	rng  *rand.Rand
	cdf  []float64 // zipf CDF over ranks; nil = uniform
	perm []int     // rank -> tile, so the popular tiles are random ones
	n    int
}

func newTilePicker(rng *rand.Rand, n int, zipf bool) *tilePicker {
	p := &tilePicker{rng: rng, n: n}
	if !zipf {
		return p
	}
	p.perm = rng.Perm(n)
	p.cdf = make([]float64, n)
	var sum float64
	for i := range p.cdf {
		sum += 1 / math.Pow(float64(i+1), 1.2)
		p.cdf[i] = sum
	}
	for i := range p.cdf {
		p.cdf[i] /= sum
	}
	return p
}

func (p *tilePicker) pick() int {
	if p.cdf == nil {
		return p.rng.IntN(p.n)
	}
	u := p.rng.Float64()
	lo, hi := 0, p.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.perm[lo]
}

// generator draws items over a rows × cols table.
type generator struct {
	rng        *rand.Rand
	tiles      *tilePicker
	rows, cols int
	gridCols   int
}

// tileAt is grid tile t of a grid gridCols tiles wide, row-major as in
// table.Grid.
func tileAt(gridCols, t int) table.Rect {
	return table.Rect{R0: (t / gridCols) * tileSide, C0: (t % gridCols) * tileSide, Rows: tileSide, Cols: tileSide}
}

func (g *generator) tileRect(t int) table.Rect { return tileAt(g.gridCols, t) }

// anchored returns an h × w rectangle at tile t's origin, pulled back
// inside [c0, c1) × [0, rows) where it would stick out.
func (g *generator) anchored(t, h, w, c0, c1 int) table.Rect {
	tr := g.tileRect(t)
	return table.Rect{R0: min(tr.R0, g.rows-h), C0: min(max(tr.C0, c0), c1-w), Rows: h, Cols: w}
}

func (g *generator) drawItem(kind string) item {
	switch kind {
	case "tile":
		return item{q: g.tileRect(g.tiles.pick())}
	case "compound":
		// Sides in [33, 63] are never the pooled dyadic size, so the
		// pool assembles the 4-rect compound sketch of Definition 4.
		h, w := tileSide+1+g.rng.IntN(tileSide-1), tileSide+1+g.rng.IntN(tileSide-1)
		for {
			a := g.anchored(g.tiles.pick(), h, w, 0, g.cols)
			b := g.anchored(g.tiles.pick(), h, w, 0, g.cols)
			if a != b {
				return item{a: a, b: b}
			}
		}
	case "cross":
		// One rectangle on each side of the shard cut at cols/2, so the
		// coordinator merges sketches fetched from two shards.
		h, w := tileSide+1+g.rng.IntN(tileSide-1), tileSide+1+g.rng.IntN(tileSide-1)
		half := g.cols / 2
		a := g.anchored(g.tiles.pick(), h, w, 0, half)
		b := g.anchored(g.tiles.pick(), h, w, half, g.cols)
		if g.rng.IntN(2) == 1 {
			a, b = b, a
		}
		return item{a: a, b: b}
	case "large":
		h, w := min(128, g.rows/2), min(256, g.cols/4)
		for {
			a := table.Rect{R0: g.rng.IntN(g.rows - h + 1), C0: g.rng.IntN(g.cols - w + 1), Rows: h, Cols: w}
			b := table.Rect{R0: g.rng.IntN(g.rows - h + 1), C0: g.rng.IntN(g.cols - w + 1), Rows: h, Cols: w}
			if a != b {
				return item{a: a, b: b}
			}
		}
	}
	panic("benchmark: unknown rect kind " + kind)
}

// buildCycle generates the workload's fixed request cycle from the
// seed: the counts follow the mix shares exactly, the order is a seeded
// shuffle. Same seed, same bytes.
func buildCycle(sp *spec, sz size, seed uint64) []*request {
	n := sp.cycle
	if sz.cycle > 0 {
		n = sz.cycle
	}
	rng := newRNG(seed, 0xc7c1e)
	gridCols := sz.cols / tileSide
	g := &generator{
		rng: rng, rows: sz.rows, cols: sz.cols, gridCols: gridCols,
		tiles: newTilePicker(rng, (sz.rows/tileSide)*gridCols, sp.zipf),
	}
	var reqs []*request
	for _, m := range sp.mix {
		count := int(math.Round(m.share * float64(n)))
		for i := 0; i < count; i++ {
			items := make([]item, max(m.batch, 1))
			for j := range items {
				items[j] = g.drawItem(m.rects)
			}
			reqs = append(reqs, newRequest(m, items))
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func newRequest(m mix, items []item) *request {
	rq := &request{op: m.op, mode: m.mode, label: m.op + "/" + m.mode, items: items}
	if m.batch == 0 {
		vals := url.Values{"mode": {m.mode}}
		it := items[0]
		if m.op == "distance" {
			vals.Set("a", server.FormatRect(it.a))
			vals.Set("b", server.FormatRect(it.b))
		} else {
			vals.Set("q", server.FormatRect(it.q))
		}
		rq.method, rq.path = http.MethodGet, "/v1/"+m.op+"?"+vals.Encode()
		return rq
	}
	rq.label = "batch/" + rq.label
	br := server.BatchRequest{Mode: m.mode, Items: make([]server.BatchItem, len(items))}
	for i, it := range items {
		if m.op == "distance" {
			br.Items[i] = server.BatchItem{A: server.FormatRect(it.a), B: server.FormatRect(it.b)}
		} else {
			br.Items[i] = server.BatchItem{Q: server.FormatRect(it.q)}
		}
	}
	body, err := json.Marshal(&br)
	if err != nil {
		panic(err) // strings and ints only
	}
	rq.method, rq.path, rq.body = http.MethodPost, "/v1/batch/"+m.op, body
	return rq
}

func cycleItems(reqs []*request) int {
	n := 0
	for _, rq := range reqs {
		n += len(rq.items)
	}
	return n
}
