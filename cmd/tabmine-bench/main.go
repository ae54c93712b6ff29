// Command tabmine-bench runs the repo's before/after microbenchmarks
// with the testing package's programmatic harness and emits a
// machine-readable JSON report: the raw cross-correlation primitive,
// all-positions preprocessing, and pool construction (the unplanned
// "before" rows live on in BENCH_2.json), incremental pool maintenance (Pool.Append vs a full
// rebuild at several append widths, with measured correlation counts),
// the progressive nearest-tile scan (full scan vs the progressive exact
// scan at several grid sizes, with per-query coordinate savings and the
// share of answers equal to the full scan's), the batched query path
// (one POST /v1/batch/distance vs N sequential GETs over live HTTP,
// plus the batch kernel's steady-state allocs per item), and an
// in-process replay run whose report is embedded verbatim.
//
//	tabmine-bench -out /tmp/tabmine-bench.json
//	tabmine-bench -suite nearest -tiles 64   # CI smoke slice
//
// The committed BENCH_*.json files are archived reports of earlier
// versions of this harness, quoted in EXPERIMENTS.md; `make bench-json`
// writes a fresh one outside the tree.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/lpnorm"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// result is one benchmark row. Correlations is how many valid-region
// cross-correlations one op performs, so NsPerCorrelation and
// AllocsPerCorrelation are comparable across rows that batch differently
// (a packed pair does two per op; an AllPositions op does k).
//
// The nearest-scan rows carry the coordinate economy instead: how many
// coordinates (marginal coordinates + exact cells) one query consumed
// out of the full scan's total, the pruned fraction, and the share of
// the query set whose answer equals the full scan's (recall).
type result struct {
	Name                 string  `json:"name"`
	Iterations           int     `json:"iterations"`
	NsPerOp              int64   `json:"ns_per_op"`
	BytesPerOp           int64   `json:"bytes_per_op"`
	AllocsPerOp          int64   `json:"allocs_per_op"`
	Correlations         int     `json:"correlations_per_op"`
	NsPerCorrelation     float64 `json:"ns_per_correlation"`
	AllocsPerCorrelation float64 `json:"allocs_per_correlation"`

	CoordinatesEvaluated int64   `json:"coordinates_evaluated,omitempty"`
	CoordinatesTotal     int64   `json:"coordinates_total,omitempty"`
	PrunedFraction       float64 `json:"pruned_fraction,omitempty"`
	Recall               float64 `json:"recall,omitempty"`
}

type report struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    []result           `json:"results"`
	Speedups   map[string]float64 `json:"speedups"`
	Replay     *replay.Report     `json:"replay,omitempty"`
}

func run(name string, correlations int, fn func(b *testing.B)) result {
	fmt.Fprintf(os.Stderr, "running %-28s ", name+"...")
	// Pay any outstanding GC debt from setup or the previous section now,
	// not inside the first timed ops (on a single-core box a collection
	// of a predecessor's garbage can dominate a short benchmark).
	runtime.GC()
	r := testing.Benchmark(fn)
	row := result{
		Name:         name,
		Iterations:   r.N,
		NsPerOp:      r.NsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
		Correlations: correlations,
	}
	row.NsPerCorrelation = float64(row.NsPerOp) / float64(correlations)
	row.AllocsPerCorrelation = float64(row.AllocsPerOp) / float64(correlations)
	fmt.Fprintf(os.Stderr, "%12d ns/op %10d B/op %6d allocs/op (n=%d)\n",
		row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, r.N)
	return row
}

func main() {
	out := flag.String("out", "/tmp/tabmine-bench.json", "output JSON path")
	suite := flag.String("suite", "all", "which sections to run: all, fft, nearest, batch")
	tilesFlag := flag.String("tiles", "64,256,1024", "grid sizes (tile counts) for the nearest suite")
	flag.Parse()
	switch *suite {
	case "all", "fft", "nearest", "batch":
	default:
		fatal(fmt.Errorf("bad -suite %q (want all, fft, nearest, or batch)", *suite))
	}
	var tileCounts []int
	for _, s := range strings.Split(*tilesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		fatal(err)
		tileCounts = append(tileCounts, n)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Speedups:   map[string]float64{},
	}
	if *suite == "all" || *suite == "nearest" {
		benchNearest(&rep, tileCounts)
	}
	if *suite == "all" || *suite == "fft" {
		benchFFT(&rep)
	}
	if *suite == "all" || *suite == "batch" {
		benchBatch(&rep)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	buf = append(buf, '\n')
	fatal(os.WriteFile(*out, buf, 0o644))
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	for name, s := range rep.Speedups {
		fmt.Printf("%-28s %.2fx\n", name, s)
	}
}

func benchFFT(rep *report) {
	// --- CrossCorrelate: the raw primitive, 128x128 table, 16x16 kernel.
	rng := rand.New(rand.NewPCG(6, 6))
	const n, m, ka, kb = 128, 128, 16, 16
	data := make([]float64, n*m)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	kernA := make([]float64, ka*kb)
	kernB := make([]float64, ka*kb)
	for i := range kernA {
		kernA[i], kernB[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	plan := fft.NewPlan2D(data, n, m)
	or, oc := plan.OutDims(ka, kb)
	dstA := make([]float64, or*oc)
	dstB := make([]float64, or*oc)
	rep.Results = append(rep.Results, run("cross_correlate/planned", 2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.CorrelatePairValid(kernA, kernB, ka, kb, dstA, 1, dstB, 1)
		}
	}))

	// --- AllPositions: Theorem 3 preprocessing, k=32 matrices.
	tb := workload.Random(128, 128, 1, 17)
	const k, edge = 32, 16
	sk, err := core.NewSketcher(1, k, edge, edge, 7, core.EstimatorAuto)
	fatal(err)
	rep.Results = append(rep.Results, run("all_positions/planned", k, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sk.AllPositions(tb)
		}
	}))

	// --- NewPool: Theorem 6 preprocessing over a 4x4 grid of dyadic
	// sizes, 4 subpools each, k=16 — 64 plane-set jobs, 1024 correlations.
	poolTb := workload.Random(64, 64, 1, 11)
	const poolK = 16
	opts := core.PoolOptions{
		MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4,
		Workers: 1,
	}
	jobs := (opts.MaxLogRows - opts.MinLogRows + 1) * (opts.MaxLogCols - opts.MinLogCols + 1) * 4
	rep.Results = append(rep.Results, run("new_pool/planned", jobs*poolK, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewPool(poolTb, 1, poolK, 7, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- Incremental append: panel-mode maintenance over a 256-column
	// window vs rebuilding from scratch, at several append widths. Per-op
	// (not per-correlation) speedup is the headline here: both sides do
	// one maintenance event over the same grown table, the incremental
	// side just runs fewer slab correlations (the Correlations columns
	// record exactly how many, counted by the fft package's hooks).
	const apRows, apBase = 64, 256
	apOpts := core.PoolOptions{
		MinLogRows: 1, MaxLogRows: 4, MinLogCols: 1, MaxLogCols: 4,
		PanelCols: 32, Workers: 1,
	}
	apFull := workload.Random(apRows, apBase+64, 1, 21)
	apBaseTb := apFull.Sub(table.Rect{Rows: apRows, Cols: apBase})
	basePool, err := core.NewPool(apBaseTb, 1, poolK, 7, apOpts)
	fatal(err)
	for _, w := range []int{1, 8, 64} {
		grown := apFull.Sub(table.Rect{Rows: apRows, Cols: apBase + w})
		// One uncounted warm call per side measures its correlation count.
		c0 := fft.CorrelationCount()
		_, err := basePool.Append(context.Background(), grown)
		fatal(err)
		appendCorr := int(fft.CorrelationCount() - c0)
		c0 = fft.CorrelationCount()
		_, err = core.NewPool(grown, 1, poolK, 7, apOpts)
		fatal(err)
		rebuildCorr := int(fft.CorrelationCount() - c0)

		inc := run(fmt.Sprintf("incremental_append/w%d", w), appendCorr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := basePool.Append(context.Background(), grown); err != nil {
					b.Fatal(err)
				}
			}
		})
		reb := run(fmt.Sprintf("full_rebuild/w%d", w), rebuildCorr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPool(grown, 1, poolK, 7, apOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Results = append(rep.Results, inc, reb)
		rep.Speedups[fmt.Sprintf("incremental_append/w%d", w)] =
			float64(reb.NsPerOp) / float64(inc.NsPerOp)
	}
}

// pairedGrid builds a dim×dim table whose 8×8 grid tiles come in
// pairs: tiles 2i and 2i+1 (row-major order) share a random per-pair
// level, so every tile has exactly one near-duplicate twin while
// distinct pairs sit far apart. This is the separated regime
// progressive pruning exists for — pure noise concentrates pairwise
// distances and no sound method can prune it.
func pairedGrid(dim int, seed uint64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, 0x91a47ed))
	tb := table.New(dim, dim)
	g := dim / 8
	level := 0.0
	for ti := 0; ti < g*g; ti++ {
		if ti%2 == 0 {
			level = rng.Float64()*2000 - 1000
		}
		tr, tc := ti/g, ti%g
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				tb.Set(tr*8+r, tc*8+c, level+0.05*rng.NormFloat64())
			}
		}
	}
	return tb
}

// fullScanNearest is the brute-force nearest 8 × 8 grid tile to q under
// lp: every other tile's power sum row by row, the lowest index of the
// smallest. Snapshot.ExactNearest is the engine this suite checks, so the
// reference is a loop of the suite's own.
func fullScanNearest(tb *table.Table, lp lpnorm.P, g int, q table.Rect) (int, float64) {
	best, bestSum := -1, math.Inf(1)
	for ti := 0; ti < g*g; ti++ {
		r0, c0 := 8*(ti/g), 8*(ti%g)
		if r0 == q.R0 && c0 == q.C0 {
			continue
		}
		var sum float64
		for r := 0; r < 8; r++ {
			sum += lp.DistPowSum(tb.Row(r0 + r)[c0:c0+8], tb.Row(q.R0 + r)[q.C0:q.C0+8])
		}
		if sum < bestSum {
			best, bestSum = ti, sum
		}
	}
	return best, math.Pow(bestSum, 1/lp.Value())
}

// benchNearest times one nearest-tile query two ways — a brute-force
// full scan and the progressive scan (identical answers) — at several
// grid sizes, and measures over a 32-query seeded set the per-query
// coordinate economy and the share of answers equal to the full scan's
// (reported as recall; anything below 1 is a bug, and stops the run).
func benchNearest(rep *report, tileCounts []int) {
	lp := lpnorm.MustP(2)
	ctx := context.Background()
	for _, tiles := range tileCounts {
		g := 1
		for g*g < tiles {
			g++
		}
		if g*g != tiles {
			fatal(fmt.Errorf("-tiles %d is not a square grid", tiles))
		}
		dim := 8 * g
		tb := pairedGrid(dim, uint64(tiles))
		// One pooled dyadic size — the 8×8 tile itself — at p = 2, the
		// configuration the archived BENCH files report.
		pool, err := core.NewPool(tb, 2, 64, 7, core.PoolOptions{
			MinLogRows: 3, MaxLogRows: 3, MinLogCols: 3, MaxLogCols: 3,
		})
		fatal(err)
		sn, err := server.BuildSnapshot(ctx, tb, pool, server.SnapshotConfig{
			TileRows: 8, TileCols: 8,
		})
		fatal(err)

		// Coordinate economy over a seeded query set of aligned tiles.
		// Each query's true nearest is its twin; everything else is far,
		// so the row-sum bounds should rule out nearly the whole grid.
		rng := rand.New(rand.NewPCG(uint64(tiles), 0xbe7c4)) // distinct from the plant seed
		var evaluated, total int64
		matches, queries := 0, 32
		for i := 0; i < queries; i++ {
			ti := rng.IntN(tiles)
			q := table.Rect{R0: 8 * (ti / g), C0: 8 * (ti % g), Rows: 8, Cols: 8}
			wantIdx, wantD := fullScanNearest(tb, lp, g, q)
			idx, d, st, err := sn.ProgressiveNearest(ctx, q, 1, nil, 0)
			fatal(err)
			if idx != wantIdx || d != wantD {
				fatal(fmt.Errorf("progressive scan diverged from the full scan at t%d q=%v", tiles, q))
			}
			matches++
			evaluated += st.CellsEvaluated
			total += st.CoordinatesTotal
		}

		// Timed on one representative near-cluster query (workers=1: the
		// comparison is single-thread coordinate economy, not fan-out).
		q := table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 8}
		full := run(fmt.Sprintf("nearest/full_scan/t%d", tiles), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fullScanNearest(tb, lp, g, q)
			}
		})
		exact := run(fmt.Sprintf("nearest/progressive_exact/t%d", tiles), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := sn.ProgressiveNearest(ctx, q, 1, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		full.CoordinatesEvaluated, full.CoordinatesTotal = total, total
		exact.CoordinatesEvaluated, exact.CoordinatesTotal = evaluated, total
		exact.PrunedFraction = 1 - float64(evaluated)/float64(total)
		exact.Recall = float64(matches) / float64(queries)
		rep.Results = append(rep.Results, full, exact)
		rep.Speedups[fmt.Sprintf("nearest_exact_time/t%d", tiles)] =
			float64(full.NsPerOp) / float64(exact.NsPerOp)
		rep.Speedups[fmt.Sprintf("nearest_coordinate_saving/t%d", tiles)] =
			float64(total) / float64(evaluated)
		fmt.Fprintf(os.Stderr, "  t%d: %d/%d answers equal the full scan, coordinate saving %.2fx\n",
			tiles, matches, queries, float64(total)/float64(evaluated))
	}
}

// benchBatch measures the batched query path over live HTTP: one
// POST /v1/batch/distance carrying 64 items vs 64 sequential GETs
// answering the identical queries (mode=sketch on both sides, so the
// comparison isolates transport + dispatch amortization from tier
// choice), and the batch kernel's steady-state allocations per
// item. It then runs an in-process replay — zipf-skewed open-loop
// load against the same server — and embeds the resulting report.
func benchBatch(rep *report) {
	ctx := context.Background()
	const batchN = 64
	g := 8 // 8×8 grid of 8×8 tiles
	tb := pairedGrid(8*g, 77)
	pool, err := core.NewPool(tb, 1, 64, 42, core.PoolOptions{
		MinLogRows: 3, MaxLogRows: 3, MinLogCols: 3, MaxLogCols: 3,
	})
	fatal(err)
	sn, err := server.BuildSnapshot(ctx, tb, pool, server.SnapshotConfig{
		TileRows: 8, TileCols: 8, Clusters: 4, Seed: 42,
	})
	fatal(err)
	// Capacity sized so a weight-64 batch does not saturate admission:
	// the throughput comparison measures dispatch cost, not shedding.
	s, err := server.New(sn, server.Config{MaxInflight: 64, MaxQueue: 256})
	fatal(err)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewPCG(13, 0xba7c4))
	as := make([]table.Rect, batchN)
	bs := make([]table.Rect, batchN)
	items := make([]server.BatchItem, batchN)
	targets := make([]string, batchN)
	for i := range as {
		ta, tbi := rng.IntN(g*g), rng.IntN(g*g)
		as[i] = table.Rect{R0: 8 * (ta / g), C0: 8 * (ta % g), Rows: 8, Cols: 8}
		bs[i] = table.Rect{R0: 8 * (tbi / g), C0: 8 * (tbi % g), Rows: 8, Cols: 8}
		items[i] = server.BatchItem{A: server.FormatRect(as[i]), B: server.FormatRect(bs[i])}
		targets[i] = ts.URL + "/v1/distance?a=" + items[i].A + "&b=" + items[i].B +
			"&mode=" + server.ModeSketch
	}
	body, err := json.Marshal(&server.BatchRequest{Mode: server.ModeSketch, Items: items})
	fatal(err)
	httpc := &http.Client{}
	drain := func(resp *http.Response, werr error) {
		fatal(werr)
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("bench batch: status %d", resp.StatusCode))
		}
	}

	seq := run(fmt.Sprintf("batch/sequential_gets/%d", batchN), batchN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range targets {
				drain(httpc.Get(u))
			}
		}
	})
	bat := run(fmt.Sprintf("batch/batch_post/%d", batchN), batchN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drain(httpc.Post(ts.URL+"/v1/batch/distance", "application/json", bytes.NewReader(body)))
		}
	})
	rep.Results = append(rep.Results, seq, bat)
	rep.Speedups[fmt.Sprintf("batch_distance_throughput/%d", batchN)] =
		float64(seq.NsPerOp) / float64(bat.NsPerOp)

	// Steady-state kernel cost: one DistanceBatch call answering all 64
	// estimates. AllocsPerCorrelation is the allocs-per-item headline
	// (acceptance: ≤ 2 with a caller-provided dst).
	dst := make([]float64, batchN)
	kern := run(fmt.Sprintf("batch/kernel_sketch/%d", batchN), batchN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sn.SketchDistanceBatch(as, bs, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Results = append(rep.Results, kern)

	// Replay: 2000 zipf-skewed nearest queries in batches of 16, open
	// loop against a deliberately capacity-constrained instance (one
	// 16-item batch alone is 16/20 of capacity), so the report exercises
	// the shed and degraded-tier measurements rather than recording an
	// idle server.
	loaded, err := server.New(sn, server.Config{MaxInflight: 4, MaxQueue: 16})
	fatal(err)
	lts := httptest.NewServer(loaded.Handler())
	defer lts.Close()
	fmt.Fprintf(os.Stderr, "running replay (2000 queries)...\n")
	rr, err := replay.Run(ctx, replay.Config{
		BaseURL: lts.URL, Queries: 2000, Rate: 4000, Batch: 16,
		Op: "nearest", Mode: server.ModeAuto, Seed: 7, MaxOutstanding: 64,
	})
	fatal(err)
	rep.Replay = rr
	fmt.Fprintf(os.Stderr, "  replay: served %d shed %d degraded %d p50 %.2fms p99 %.2fms\n",
		rr.Served, rr.Shed, rr.Degraded, rr.RequestLatency.P50, rr.RequestLatency.P99)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-bench: %v\n", err)
		os.Exit(1)
	}
}
