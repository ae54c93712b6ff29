package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/table"
)

// The oracle computes, outside the timed path, the answer every item of
// the cycle must get:
//
//   - exact tier: brute force over table cells by the loops in this
//     file, agreeing to 1e-9;
//   - sketch and pruned tiers: the direct Snapshot call (the HTTP layers
//     must not change an answer), agreeing to 1e-9, and beside it the
//     brute-force answer so that accuracy can be reported;
//   - coordinator: the unsharded snapshot's tiles and tags, distances to
//     1e-6. Each shard's own FFT build rounds differently, and with the
//     Cauchy lanes of p = 1 the rounding is heavy-tailed: about one seed
//     in a hundred passes the 1e-9 the repository's own suite asserts
//     (seed 724 reads 1.3e-9 on two tiles).

const (
	tolerance      = 1e-9
	coordTolerance = 1e-6
)

// reference is the expected answer of one item plus what accuracy needs.
type reference struct {
	tier     string
	distance float64
	tol      float64 // relative tolerance on distance; 0 = tolerance
	tile     int     // nearest: tile index; assign: medoid tile index
	cluster  int
	shard    int // coordinator assign: index of the owning shard

	exact    float64 // distance items off the exact tier: brute-force distance
	trueTile int     // nearest items off the exact tier: brute-force nearest (-1 otherwise)
}

// answer is the superset of the server's and the coordinator's result
// objects, so one decoder serves every endpoint.
type answer struct {
	Distance float64            `json:"distance"`
	Tier     string             `json:"tier"`
	Degraded bool               `json:"degraded"`
	Reason   string             `json:"reason"`
	Tile     int                `json:"tile"`
	Cluster  int                `json:"cluster"`
	Medoid   int                `json:"medoid"`
	Shard    int                `json:"shard"`
	Partial  bool               `json:"partial"`
	Prune    *server.PruneStats `json:"prune"`
	Error    string             `json:"error"`
}

func near(got, want, tol float64) bool {
	if tol == 0 {
		tol = tolerance
	}
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// check returns why got is not the expected answer of an op item, or "".
func (want *reference) check(op string, got *answer) string {
	switch {
	case got.Error != "":
		return "item error: " + got.Error
	case got.Degraded || got.Partial:
		return fmt.Sprintf("degraded answer (reason %q)", got.Reason)
	case got.Tier != want.tier:
		return fmt.Sprintf("tier %q, want %q", got.Tier, want.tier)
	case !near(got.Distance, want.distance, want.tol):
		return fmt.Sprintf("distance %v, want %v", got.Distance, want.distance)
	}
	switch op {
	case "nearest":
		if got.Tile != want.tile {
			return fmt.Sprintf("tile %d, want %d", got.Tile, want.tile)
		}
	case "assign":
		if got.Medoid != want.tile || got.Cluster != want.cluster || got.Shard != want.shard {
			return fmt.Sprintf("cluster %d medoid %d shard %d, want %d %d %d",
				got.Cluster, got.Medoid, got.Shard, want.cluster, want.tile, want.shard)
		}
	}
	return ""
}

// l1 is the benchmark's own exact distance: every fixture uses p = 1.
func l1(tb *table.Table, a, b table.Rect) float64 {
	var sum float64
	for r := 0; r < a.Rows; r++ {
		ra := tb.Row(a.R0 + r)[a.C0 : a.C0+a.Cols]
		rb := tb.Row(b.R0 + r)[b.C0 : b.C0+b.Cols]
		for i, v := range ra {
			sum += math.Abs(v - rb[i])
		}
	}
	return sum
}

func gridTile(tb *table.Table, t int) table.Rect { return tileAt(tb.Cols()/tileSide, t) }

func numTiles(tb *table.Table) int { return (tb.Rows() / tileSide) * (tb.Cols() / tileSide) }

// bruteNearest scans every grid tile except q's own position; the
// lowest index wins a tie, as in the server.
func bruteNearest(tb *table.Table, q table.Rect) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for t := 0; t < numTiles(tb); t++ {
		r := gridTile(tb, t)
		if r == q {
			continue
		}
		if d := l1(tb, q, r); d < bestD {
			best, bestD = t, d
		}
	}
	return best, bestD
}

// oracle resolves references against one built fixture. For the
// coordinator fixture whole is an unsharded snapshot over the full
// table, built for this purpose and dropped afterwards.
type oracle struct {
	tb    *table.Table
	fx    *fixture
	whole *server.Snapshot

	nearest map[table.Rect][2]float64 // q -> brute-force (tile, distance)
	medoids []int                     // single-server fixture: medoid tile per cluster
}

func newOracle(tb *table.Table, fx *fixture, kind string, sz size, seed uint64) (*oracle, error) {
	o := &oracle{tb: tb, fx: fx, nearest: map[table.Rect][2]float64{}}
	ctx := context.Background()
	switch kind {
	case "server":
		o.whole = fx.shards[0].snap
		// The snapshot does not export its medoids. Every medoid tile is
		// its own cluster's nearest medoid at distance 0, so assigning
		// every tile enumerates them; the answers themselves then come
		// from the brute-force loop over this set.
		o.medoids = make([]int, sz.clusters)
		found := 0
		for t := 0; t < numTiles(tb); t++ {
			c, m, d, err := o.whole.ExactAssign(ctx, gridTile(tb, t))
			if err != nil {
				return nil, err
			}
			if d == 0 && m == t {
				o.medoids[c] = m
				found++
			}
		}
		if found != sz.clusters {
			return nil, fmt.Errorf("enumerated %d medoids, want %d", found, sz.clusters)
		}
	case "coord":
		pool, err := core.NewPool(tb, 1, sz.k, poolSeed(seed), poolOptions(0))
		if err != nil {
			return nil, err
		}
		cfg := snapshotConfig(sz, seed)
		cfg.Clusters = 0 // clusterings are shard-local; the unsharded one is never consulted
		if o.whole, err = server.BuildSnapshot(ctx, tb, pool, cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *oracle) brute(q table.Rect) (int, float64) {
	if v, ok := o.nearest[q]; ok {
		return int(v[0]), v[1]
	}
	t, d := bruteNearest(o.tb, q)
	o.nearest[q] = [2]float64{float64(t), d}
	return t, d
}

// resolve fills rq.want.
func (o *oracle) resolve(rq *request, coordinator bool) error {
	rq.want = make([]reference, len(rq.items))
	for i, it := range rq.items {
		var ref reference
		var err error
		switch {
		case coordinator:
			ref, err = o.coordItem(rq.op, it)
		default:
			ref, err = o.serverItem(rq.op, rq.mode, it)
		}
		if err != nil {
			return fmt.Errorf("reference for %s %v: %w", rq.label, it, err)
		}
		rq.want[i] = ref
	}
	return nil
}

func (o *oracle) serverItem(op, mode string, it item) (reference, error) {
	ctx := context.Background()
	sn := o.whole
	ref := reference{trueTile: -1}
	switch op + "/" + mode {
	case "distance/" + server.ModeSketch:
		d, err := sn.SketchDistance(it.a, it.b)
		ref.tier, ref.distance, ref.exact = server.TierSketch, d, l1(o.tb, it.a, it.b)
		return ref, err
	case "distance/" + server.ModeExact:
		ref.tier, ref.distance = server.TierExact, l1(o.tb, it.a, it.b)
	case "nearest/" + server.ModeSketch:
		t, d, err := sn.SketchNearest(ctx, it.q)
		ref.tier, ref.tile, ref.distance = server.TierSketch, t, d
		ref.trueTile, _ = o.brute(it.q)
		return ref, err
	case "nearest/" + server.ModePrune:
		plan, err := sn.Plan(server.DefaultPruneDelta)
		if err != nil {
			return ref, err
		}
		t, d, _, err := sn.ProgressiveNearest(ctx, it.q, 0, plan, server.DefaultPruneEpsilon)
		ref.tier, ref.tile, ref.distance = server.TierPruned, t, d
		ref.trueTile, _ = o.brute(it.q)
		return ref, err
	case "nearest/" + server.ModeExact, "nearest/" + server.ModeAuto:
		ref.tier = server.TierExact
		ref.tile, ref.distance = o.brute(it.q)
	case "assign/" + server.ModeSketch:
		c, m, d, err := sn.SketchAssign(ctx, it.q)
		ref.tier, ref.cluster, ref.tile, ref.distance = server.TierSketch, c, m, d
		return ref, err
	case "assign/" + server.ModeAuto:
		ref.tier, ref.distance = server.TierExact, math.Inf(1)
		for c, m := range o.medoids {
			if d := l1(o.tb, it.q, gridTile(o.tb, m)); d < ref.distance {
				ref.cluster, ref.tile, ref.distance = c, m, d
			}
		}
	default:
		return ref, fmt.Errorf("no oracle for %s/%s", op, mode)
	}
	return ref, nil
}

// coordItem is the answer of a mode=auto query through a coordinator
// over more than one shard: always the sketch tier.
func (o *oracle) coordItem(op string, it item) (reference, error) {
	ctx := context.Background()
	ref := reference{tier: server.TierSketch, trueTile: -1, tol: coordTolerance}
	switch op {
	case "distance":
		d, err := o.whole.SketchDistance(it.a, it.b)
		ref.distance, ref.exact = d, l1(o.tb, it.a, it.b)
		return ref, err
	case "nearest":
		t, d, err := o.whole.SketchNearest(ctx, it.q)
		ref.tile, ref.distance = t, d
		ref.trueTile, _ = o.brute(it.q)
		return ref, err
	case "assign":
		// Clusterings are shard-local, so there is no unsharded answer:
		// the reference is each shard's own best medoid for the owner's
		// sketch of q, merged by (distance, global tile).
		var qsk []float64
		for _, sh := range o.fx.shards {
			if it.q.C0 >= sh.baseCol && it.q.C0+it.q.Cols <= sh.baseCol+sh.tb.Cols() {
				local := it.q
				local.C0 -= sh.baseCol
				var err error
				if qsk, err = sh.snap.Pool().Sketch(local, nil); err != nil {
					return ref, err
				}
			}
		}
		ref.distance = math.Inf(1)
		gridCols := o.tb.Cols() / tileSide
		for i, sh := range o.fx.shards {
			c, m, d, err := sh.snap.SketchAssignVec(ctx, qsk)
			if err != nil {
				return ref, err
			}
			lgc := sh.tb.Cols() / tileSide
			global := (m/lgc)*gridCols + sh.baseCol/tileSide + m%lgc
			if d < ref.distance || (d == ref.distance && global < ref.tile) {
				ref.shard, ref.cluster, ref.tile, ref.distance = i, c, global, d
			}
		}
		return ref, nil
	}
	return ref, fmt.Errorf("no coordinator oracle for %s", op)
}

// accuracy is what the answers of a workload's approximate tier are
// worth, from the references (which every HTTP answer was checked to
// equal). All three are deterministic for a seed.
type accuracy struct {
	// SketchErrP90 is the 90th percentile of |sketch − exact| / exact
	// over the distance items answered off the exact tier.
	SketchErrP90 float64 `json:"sketch_err_p90"`
	// Recall is the share of distinct approximate nearest queries whose
	// answer is the brute-force nearest tile.
	Recall float64 `json:"recall"`
	// AnswerRatio is the mean, over the same queries, of the exact
	// distance to the returned tile over the exact distance to the true
	// nearest: 1 when every answer is right, and it grows with how much
	// worse the wrong ones are.
	AnswerRatio float64 `json:"answer_ratio"`
	DistItems   int     `json:"distance_items"`
	NearQueries int     `json:"nearest_queries"`
}

// nearestSample is one distinct approximate nearest query: whether the
// answer was the true nearest tile, and the exact distance to the tile
// returned over the exact distance to the true nearest.
type nearestSample struct {
	hit   bool
	ratio float64
}

func newNearestSample(tb *table.Table, q table.Rect, got, truth int) nearestSample {
	if got == truth {
		return nearestSample{hit: true, ratio: 1}
	}
	return nearestSample{ratio: l1(tb, q, gridTile(tb, got)) / l1(tb, q, gridTile(tb, truth))}
}

func measureAccuracy(errs []float64, near []nearestSample) accuracy {
	acc := accuracy{DistItems: len(errs), NearQueries: len(near), Recall: 1, AnswerRatio: 1}
	if len(errs) > 0 {
		sorted := pooled([][]float64{errs})
		acc.SketchErrP90, _ = percentile(sorted, 0.90)
	}
	if len(near) > 0 {
		hits, ratio := 0, 0.0
		for _, s := range near {
			if s.hit {
				hits++
			}
			ratio += s.ratio
		}
		acc.Recall = float64(hits) / float64(len(near))
		acc.AnswerRatio = ratio / float64(len(near))
	}
	return acc
}

// accuracy measures a resolved cycle: every distance item answered off
// the exact tier, and every grid tile once as a nearest query on the
// workload's approximate tier ("sketch" or "prune") — once each, so
// that popular tiles do not count many times over and the sample is the
// same size on every seed.
func (o *oracle) accuracy(reqs []*request, approx string) (accuracy, error) {
	var errs []float64
	for _, rq := range reqs {
		for _, ref := range rq.want {
			if rq.op == "distance" && ref.tier != server.TierExact && ref.exact > 0 {
				errs = append(errs, math.Abs(ref.distance-ref.exact)/ref.exact)
			}
		}
	}
	near := make([]nearestSample, numTiles(o.tb))
	for t := range near {
		q := gridTile(o.tb, t)
		ref, err := o.serverItem("nearest", approx, item{q: q})
		if err != nil {
			return accuracy{}, err
		}
		near[t] = newNearestSample(o.tb, q, ref.tile, ref.trueTile)
	}
	return measureAccuracy(errs, near), nil
}
