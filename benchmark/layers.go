package main

import (
	"context"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
)

// perLayerUnits names every per-layer metric and its unit. A traced run
// prints all of them; a layer that is not on a workload's path reads 0
// there (README "Per-layer metrics" says which end-to-end metric each
// one should move, and on which workload).
var perLayerUnits = map[string]string{
	"fft.correlate_us":                   "us",
	"fft.correlations_per_build":         "count",
	"fft.table_spectra_per_build":        "count",
	"fft.correlations_per_day":           "count",
	"core.new_pool_s":                    "s",
	"core.pool_sketch_us":                "us",
	"core.estimate_ns":                   "ns",
	"core.append_ms":                     "ms",
	"core.pool_mb":                       "MiB",
	"cluster.kmedoids_ms":                "ms",
	"server.build_snapshot_s":            "s",
	"server.snapshot_sketch_distance_us": "us",
	"server.snapshot_sketch_nearest_us":  "us",
	"server.snapshot_assign_us":          "us",
	"server.snapshot_exact_nearest_us":   "us",
	"server.snapshot_exact_distance_us":  "us",
	"server.handler_distance_us":         "us",
	"server.handler_nearest_us":          "us",
	"server.http_self_us":                "us",
	"server.batch_item_us":               "us",
	"server.allocs_per_request":          "count",
	"server.shed":                        "count",
	"server.degraded":                    "count",
	"server.timedout":                    "count",
	"client.overhead_us":                 "us",
	"prune.nearest_auto_us":              "us",
	"prune.nearest_prune_us":             "us",
	"prune.coords_per_query":             "count",
	"prune.pruned_fraction":              "ratio",
	"prune.survivors_per_query":          "count",
	"coord.handler_us":                   "us",
	"coord.blocking_shard_us":            "us",
	"coord.self_us":                      "us",
	"coord.subqueries_per_request":       "count",
	"coord.sub_payload_bytes":            "bytes",
	"coord.hedges":                       "count",
	"coord.partials":                     "count",
	"coord.shard_failures":               "count",
	"ingest.ack_ms":                      "ms",
	"ingest.publish_lag_ms":              "ms",
	"ingest.pending_max":                 "count",
	"ingest.shed":                        "count",
	"tabstore.append_day_ms":             "ms",
	"segstore.write_l0_ms":               "ms",
	"segstore.compact_ms":                "ms",
	"segstore.open_ms":                   "ms",
	"segstore.compactions_per_round":     "count",
	"segstore.bytes_disk":                "bytes",
	"segstore.bytes_mapped":              "bytes",
	"proc.peak_rss_mb":                   "MiB",
	"proc.cpu_s":                         "s",
	"proc.gc_cycles":                     "count",
	"proc.gc_pause_ms":                   "ms",
	"bench.calib_ms":                     "ms",
	"bench.round_spread":                 "ratio",
	"bench.trace_overhead":               "ratio",
	"bench.reference_s":                  "s",
	// Demoted from the gate (README "Demoted"): the accuracy pair is
	// deterministic for a seed but moves with the generated table from
	// seed to seed, the tail with the machine from run to run, each by
	// more than a bound a gate could use.
	"p99_ms":         "ms",
	"sketch_err_p90": "ratio",
	"recall":         "share",
}

func withUnits(values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metricValue{values[name], unit}
	}
	return out
}

// expvarMapSum adds up the integer values of a published expvar.Map.
func expvarMapSum(name string) int64 {
	m, ok := expvar.Get(name).(*expvar.Map)
	if !ok {
		return 0
	}
	var sum int64
	m.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			sum += v.Value()
		}
	})
	return sum
}

// cheapLayers are the per-layer metrics every run can report, traced or
// not: counts from the public counters and times the harness takes
// anyway.
func cheapLayers(rep *report, rounds []*roundResult, before, after systemSnap, referenceS float64) map[string]float64 {
	out := map[string]float64{
		"fft.correlations_per_build":  float64(rep.Build.Correlations),
		"fft.table_spectra_per_build": float64(rep.Build.TableSpectra),
		"core.new_pool_s":             rep.Build.NewPoolS,
		"server.build_snapshot_s":     rep.Build.BuildSnapshotS,
		"core.pool_mb":                float64(rep.Build.PoolBytes) / (1 << 20),

		"server.shed":          float64(after.server.Shed - before.server.Shed),
		"server.degraded":      float64(after.server.Degraded - before.server.Degraded),
		"server.timedout":      float64(after.server.TimedOut - before.server.TimedOut),
		"ingest.shed":          float64(after.server.IngestShed - before.server.IngestShed),
		"coord.hedges":         float64(after.coord.Hedges - before.coord.Hedges),
		"coord.partials":       float64(after.coord.Partial - before.coord.Partial),
		"coord.shard_failures": float64(after.shardFailures - before.shardFailures),

		"proc.cpu_s":       after.cpuS - before.cpuS,
		"proc.gc_cycles":   float64(after.mem.NumGC - before.mem.NumGC),
		"proc.gc_pause_ms": float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,

		"bench.calib_ms":     median(rep.RoundCalibMS),
		"bench.round_spread": spread(rep.RoundS),
		"bench.reference_s":  referenceS,

		"p99_ms":         rep.P99MS,
		"sketch_err_p90": rep.Accuracy.SketchErrP90,
		"recall":         rep.Accuracy.Recall,
	}
	_, out["proc.peak_rss_mb"] = procUsage()
	if len(rounds) > 0 {
		if p := rounds[0].prune; p.Queries > 0 {
			out["prune.coords_per_query"] = float64(p.Coordinates) / float64(p.Queries)
			out["prune.pruned_fraction"] = float64(p.Pruned) / float64(p.Total)
			out["prune.survivors_per_query"] = float64(p.Survivors) / float64(p.Queries)
		}
		if c := rounds[0].counters; c != nil {
			out["fft.correlations_per_day"] = float64(c["fft_correlations"]) / float64(rounds[0].items)
			out["segstore.compactions_per_round"] = float64(c["tabmine_seg_compactions_total"])
			seg := segstore.ReadStats()
			out["segstore.bytes_disk"], out["segstore.bytes_mapped"] = float64(seg.BytesDisk), float64(seg.BytesMapped)
		}
	}
	return out
}

// tracedLayers adds what only the traced run knows: span durations and
// self times, the tracing overhead, and the direct probes.
func tracedLayers(in instance, v *traceView, rounds []*roundResult, tracedIdx []int, out map[string]float64) error {
	isTraced := map[int]bool{}
	for _, i := range tracedIdx {
		isTraced[i] = true
	}
	var tracedMS, plainMS float64
	for i, r := range rounds {
		if isTraced[i] {
			tracedMS += r.latSumMS
		} else {
			plainMS += r.latSumMS
		}
	}
	var mallocs, requests float64
	for i, r := range rounds {
		if !isTraced[i] {
			mallocs += float64(r.mallocs)
			requests += float64(r.requests)
		}
	}
	if plainMS > 0 && requests > 0 {
		out["bench.trace_overhead"] = tracedMS/plainMS - 1
		// Client and server share the process, so this is both sides'
		// allocations; the untraced rounds only, tracing allocates too.
		out["server.allocs_per_request"] = mallocs / requests
	}

	// Client-observed time minus the first handler's span.
	var overhead, batchItem, httpSelf []float64
	for i := range v.spans {
		s := &v.spans[i]
		layer, route, _ := strings.Cut(s.Name, "/")
		if layer != "server.handler" && layer != "coord.handler" {
			continue
		}
		parent := v.byID[s.Parent]
		if parent == nil || !strings.HasPrefix(parent.Name, "client/") {
			continue
		}
		overhead = append(overhead, float64(parent.dur()-s.dur())/1e3)
		switch {
		case layer != "server.handler":
		case strings.HasPrefix(route, "batch/"):
			batchItem = append(batchItem, float64(s.dur())/1e3/float64(max(parent.Items, 1)))
		case route == "distance" || route == "nearest":
			httpSelf = append(httpSelf, float64(v.self[s.ID])/1e3)
		}
	}
	out["client.overhead_us"] = median(overhead)
	out["server.batch_item_us"] = median(batchItem)
	out["server.http_self_us"] = median(httpSelf)
	out["server.handler_distance_us"] = v.medianUS("server.handler/distance")
	out["server.handler_nearest_us"] = v.medianUS("server.handler/nearest")

	out["server.snapshot_sketch_distance_us"] = v.medianUS("snapshot/distance_sketch")
	out["server.snapshot_sketch_nearest_us"] = v.medianUS("snapshot/nearest_sketch")
	out["server.snapshot_exact_nearest_us"] = v.medianUS("snapshot/nearest_exact")
	out["server.snapshot_exact_distance_us"] = v.medianUS("snapshot/distance_exact")
	// A workload assigns on one tier only; the other name has no spans.
	out["server.snapshot_assign_us"] = max(v.medianUS("snapshot/assign_sketch"), v.medianUS("snapshot/assign_auto"))
	out["prune.nearest_auto_us"] = v.medianUS("snapshot/nearest_auto")
	out["prune.nearest_prune_us"] = v.medianUS("snapshot/nearest_prune")

	// The coordinator's headline request: its handler span, the longest
	// shard span inside it, what the shard spans leave uncovered, and
	// how many there are.
	var blocking, self, subs, payload []float64
	children := map[int][]*span{}
	v.each("shard.handler/", func(s *span) {
		children[s.Parent] = append(children[s.Parent], s)
		payload = append(payload, float64(s.Bytes))
	})
	v.each("coord.handler/nearest", func(s *span) {
		var longest int64
		for _, c := range children[s.ID] {
			longest = max(longest, c.dur())
		}
		blocking = append(blocking, float64(longest)/1e3)
		self = append(self, float64(v.self[s.ID])/1e3)
		subs = append(subs, float64(len(children[s.ID])))
	})
	out["coord.handler_us"] = v.medianUS("coord.handler/nearest")
	out["coord.blocking_shard_us"] = median(blocking)
	out["coord.self_us"] = median(self)
	out["coord.subqueries_per_request"] = mean(subs)
	out["coord.sub_payload_bytes"] = mean(payload)

	out["ingest.ack_ms"] = v.medianUS("client/ingest") / 1e3
	out["ingest.publish_lag_ms"] = v.medianUS("ingest.ack_to_publish") / 1e3

	return in.layers(out)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// probeCommon times the layers every fixture is made of by calling
// their public functions directly on the fixture's own table and pool.
func probeCommon(tb *table.Table, pool *core.Pool, sz size, seed uint64, out map[string]float64) error {
	rng := newRNG(seed, 0x9e0be)

	// One planned pair correlation of two tile-sized kernels against
	// the table's spectrum: the unit of work of every pool build.
	plan := fft.NewPlan2D(tb.Data(), tb.Rows(), tb.Cols())
	ka, kb := make([]float64, tileSide*tileSide), make([]float64, tileSide*tileSide)
	for i := range ka {
		ka[i], kb[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	or, oc := plan.OutDims(tileSide, tileSide)
	da, db := make([]float64, or*oc), make([]float64, or*oc)
	d, _ := timeMedian(9, func(int) error {
		plan.CorrelatePairValid(ka, kb, tileSide, tileSide, da, 1, db, 1)
		return nil
	})
	out["fft.correlate_us"] = float64(d) / 1e3

	// Compound 4-rect sketches of rectangles like the cycle's.
	const n = 4096
	rects := make([]table.Rect, n)
	for i := range rects {
		h, w := tileSide+1+rng.IntN(tileSide-1), tileSide+1+rng.IntN(tileSide-1)
		rects[i] = table.Rect{R0: rng.IntN(tb.Rows() - h + 1), C0: rng.IntN(tb.Cols() - w + 1), Rows: h, Cols: w}
	}
	buf := make([]float64, pool.K())
	d, err := timeMedian(5, func(int) error {
		for _, r := range rects {
			if _, err := pool.Sketch(r, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.pool_sketch_us"] = float64(d) / 1e3 / n

	// One k-lane estimate between two tile sketches.
	tiles := make([][]float64, numTiles(tb))
	for t := range tiles {
		if tiles[t], err = pool.Sketch(gridTile(tb, t), nil); err != nil {
			return err
		}
	}
	sdist := pool.SketchDist()
	var sink float64
	d, _ = timeMedian(5, func(int) error {
		for i := 0; i < n; i++ {
			sink += sdist(tiles[i%len(tiles)], tiles[(i*7+1)%len(tiles)])
		}
		return nil
	})
	calibSink += sink
	out["core.estimate_ns"] = float64(d) / n

	// The clustering BuildSnapshot runs over the tile sketches.
	d, err = timeMedian(3, func(int) error {
		_, err := cluster.KMedoids(tiles, sdist, cluster.Config{
			K: sz.clusters, Seed: clusterSeed(seed), Init: cluster.InitPlusPlus, Workers: -1,
		})
		return err
	})
	out["cluster.kmedoids_ms"] = ms(d)
	return err
}

func (in *cycleInstance) layers(out map[string]float64) error {
	sh := in.fx.shards[0]
	return probeCommon(sh.tb, sh.snap.Pool(), in.sz, in.seed, out)
}

// layers probes, on scratch copies, the layers ingest_live uses
// incrementally: the pool build Resume runs, Pool.Append of one day,
// the snapshot build of every publish, the tabstore's fsynced day
// append, and the segment store's seal, compaction and cold open.
func (in *ingestInstance) layers(out map[string]float64) error {
	out["ingest.pending_max"] = float64(in.pendingMax)
	sz := in.sz
	ctx := context.Background()
	cols := sz.prefillDays * sz.dayCols
	sub := func(c int) *table.Table {
		return in.big.Sub(table.Rect{R0: 0, C0: 0, Rows: sz.dayRows, Cols: c})
	}
	tb := sub(cols)
	t0 := time.Now()
	pool, err := core.NewPool(tb, 1, sz.k, poolSeed(in.seed), poolOptions(tileSide))
	if err != nil {
		return err
	}
	out["core.new_pool_s"] = time.Since(t0).Seconds()
	out["core.pool_mb"] = float64(pool.MemoryBytes()) / (1 << 20)
	t0 = time.Now()
	sn, err := server.BuildSnapshot(ctx, tb, pool, snapshotConfig(sz, in.seed))
	if err != nil {
		return err
	}
	out["server.build_snapshot_s"] = time.Since(t0).Seconds()
	if err := probeCommon(tb, sn.Pool(), sz, in.seed, out); err != nil {
		return err
	}

	// Pool.Append of one day onto a pool two days wide: the live pool
	// is banded, so an append copies only its unsealed fringe of a day
	// or two forward, which a narrow heap pool reproduces.
	narrow := 2 * sz.dayCols
	grown, err := core.NewPool(sub(narrow), 1, sz.k, poolSeed(in.seed), poolOptions(tileSide))
	if err != nil {
		return err
	}
	d, err := timeMedian(3, func(i int) error {
		var err error
		grown, err = grown.Append(ctx, sub(narrow+(i+1)*sz.dayCols))
		return err
	})
	if err != nil {
		return err
	}
	out["core.append_ms"] = ms(d)

	dir := filepath.Join(in.root, "probe")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Join(dir, "days"), 0o755); err != nil {
		return err
	}
	st, err := tabstore.Open(filepath.Join(dir, "days"))
	if err != nil {
		return err
	}
	if d, err = timeMedian(8, func(i int) error { return st.AppendDay(dayLabel(i), in.day(i), false) }); err != nil {
		return err
	}
	out["tabstore.append_day_ms"] = ms(d)

	opts := poolOptions(tileSide)
	params := segstore.Params{
		P: 1, K: sz.k, Rows: sz.dayRows, Seed: poolSeed(in.seed),
		MinLogRows: opts.MinLogRows, MaxLogRows: opts.MaxLogRows,
		MinLogCols: opts.MinLogCols, MaxLogCols: opts.MaxLogCols, PanelCols: opts.PanelCols,
	}
	segDir := filepath.Join(dir, "segments")
	segs, err := segstore.Open(segDir, params)
	if err != nil {
		return err
	}
	align := params.SegAlign()
	if d, err = timeMedian(segstore.DefaultCompactFanout, func(i int) error {
		return segs.WriteL0(pool, i*align, (i+1)*align)
	}); err != nil {
		segs.Close()
		return err
	}
	out["segstore.write_l0_ms"] = ms(d)
	t0 = time.Now()
	did, err := segs.Compact(segstore.DefaultCompactFanout)
	out["segstore.compact_ms"] = ms(time.Since(t0))
	segs.Close()
	if err != nil || !did {
		return fmt.Errorf("segstore probe: compaction did not run (err %v)", err)
	}
	t0 = time.Now()
	if segs, err = segstore.Open(segDir, params); err != nil {
		return err
	}
	out["segstore.open_ms"] = ms(time.Since(t0))
	segs.Close()
	return nil
}
