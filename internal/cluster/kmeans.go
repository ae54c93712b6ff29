// Package cluster implements Lloyd's k-means over table tiles with a
// pluggable distance function, the mining workload of Section 4.4.
//
// The same algorithm runs in three modes that differ only in the distance
// routine — exactly the experimental control the paper insists on ("the
// only difference between the three types of experiments was the routines
// to calculate the distance between tiles"):
//
//   - exact: points are raw tile vectors, distance is the exact Lp norm;
//   - sketch precomputed: points are sketch vectors read from a pool;
//   - sketch on demand: points are sketch vectors computed at first use.
//
// Centroids are maintained as the mean of member points. Because the
// sketch map is linear, the mean of member sketches IS the sketch of the
// mean tile, so sketch-space clustering never touches raw tiles after
// sketching — this is what makes the precomputed mode's runtime
// independent of tile size.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/parallel"
)

// DistFunc measures the distance between two points of equal length.
type DistFunc func(a, b []float64) float64

// InitMethod selects the centroid seeding strategy.
type InitMethod int

const (
	// InitRandom seeds centroids as k distinct random points — the
	// classical k-means initialization the paper uses ("uses randomness to
	// generate the initial k-means").
	InitRandom InitMethod = iota
	// InitPlusPlus seeds with the k-means++ D² weighting, an extension
	// beyond the paper that typically improves clustering quality.
	InitPlusPlus
)

// Config controls a k-means run.
type Config struct {
	K       int
	MaxIter int    // 0 means the default of 100
	Seed    uint64 // RNG seed for initialization
	Init    InitMethod
	// Workers parallelizes the point→centroid assignment step (and the
	// k-medoids per-cluster medoid search). 0 or 1 keeps the serial
	// default; n > 1 fans out over n goroutines; negative means
	// runtime.GOMAXPROCS(0).
	//
	// With Workers != 1 the dist function is called from multiple
	// goroutines concurrently and MUST be safe for concurrent use — a
	// closure over one shared scratch buffer is not. Sketcher.Distance
	// is (it borrows pooled scratch), as is any pure function like
	// lpnorm.P.Dist. Results are byte-identical at any worker
	// count: each point's assignment is written to its own slot and no
	// floating-point reduction crosses a worker boundary.
	Workers int
	// Context, when non-nil, makes the run cancellable: workers poll it
	// during assignment and seeding scans and the Lloyd loop checks it
	// between iterations. A cancelled run returns ctx.Err() and no
	// Result. A run that completes is byte-identical whether or not a
	// context was set.
	Context context.Context
}

// ctx resolves the Context knob (nil means Background).
func (cfg Config) ctx() context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// workers resolves the Workers knob; see its doc comment. Unlike
// parallel.Resolve, 0 means serial here: parallel assignment requires a
// concurrency-safe dist, which the zero Config must not assume.
func (cfg Config) workers() int {
	switch {
	case cfg.Workers < 0:
		return parallel.Resolve(0)
	case cfg.Workers == 0:
		return 1
	default:
		return cfg.Workers
	}
}

// Result reports a clustering.
type Result struct {
	Assign      []int       // point index -> cluster id in [0, K)
	Centroids   [][]float64 // K centroid vectors
	Iterations  int         // Lloyd iterations executed
	Converged   bool        // assignments reached a fixed point
	Spread      float64     // Σ over points of dist(point, its centroid)
	Comparisons int64       // distance evaluations performed — the paper's cost unit
}

const defaultMaxIter = 100

// KMeans clusters points into cfg.K clusters under dist.
// All points must share one length. Errors on empty input, K outside
// [1, len(points)], or ragged points.
func KMeans(points [][]float64, dist DistFunc, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("cluster: K = %d outside [1, %d]", cfg.K, n)
	}
	if dist == nil {
		return nil, fmt.Errorf("cluster: nil distance function")
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}

	ctx := cfg.ctx()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x6b6d65616e73))
	res := &Result{Assign: make([]int, n)}
	centroids, err := initialCentroids(ctx, points, dist, cfg, rng, &res.Comparisons)
	if err != nil {
		return nil, err
	}

	assign := res.Assign
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, cfg.K)
	sums := make([][]float64, cfg.K)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}

	workers := cfg.workers()
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1
		changed, err := assignPoints(ctx, points, centroids, assign, dist, workers)
		if err != nil {
			return nil, err
		}
		res.Comparisons += int64(n) * int64(cfg.K)
		if changed == 0 {
			res.Converged = true
			break
		}
		// Recompute centroids as member means.
		for c := range sums {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			s := sums[c]
			for j, v := range p {
				s[j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// current centroid, a standard repair that keeps K clusters
				// alive.
				far, farD := 0, -1.0
				for i, p := range points {
					d := dist(p, centroids[assign[i]])
					res.Comparisons++
					if d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] * inv
			}
		}
	}
	res.Centroids = centroids
	res.Spread = Spread(points, assign, centroids, dist)
	return res, nil
}

// assignPoints writes each point's nearest centroid into assign and
// returns how many assignments changed. The loop fans out over points
// (each point writes only assign[i]), and ties break toward the lower
// centroid index exactly as in the serial loop, so the result is
// identical at every worker count. dist must be concurrency-safe when
// workers > 1 (see Config.Workers).
//
// Workers poll ctx every ctxStride points and a panic inside dist comes
// back as a *parallel.PanicError; on either error the (partially
// updated) assign slice must be discarded by the caller.
func assignPoints(ctx context.Context, points, centroids [][]float64, assign []int, dist DistFunc, workers int) (int, error) {
	nb := parallel.NumBlocks(workers, len(points))
	changedPer := make([]int, nb)
	err := parallel.BlocksCtx(ctx, workers, len(points), func(lo, hi, block int) {
		changed := 0
		for i := lo; i < hi; i++ {
			if i&(ctxStride-1) == 0 && ctx.Err() != nil {
				return
			}
			p := points[i]
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				d := dist(p, cent)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		changedPer[block] = changed
	})
	if err != nil {
		return 0, err
	}
	changed := 0
	for _, c := range changedPer {
		changed += c
	}
	return changed, nil
}

// ctxStride is how many points a worker processes between context polls
// (a power of two so the check is a mask). Distances are cheap (O(k) on
// sketches), so polling every point would pay a mutex-guarded ctx.Err()
// per distance; every 64th keeps cancellation prompt at negligible cost.
const ctxStride = 64

// d2Scan fans the k-means++ D² update over points with the assignment
// loop's cancellation and panic-isolation contract: fn(i) owns slot i.
func d2Scan(ctx context.Context, workers, n int, fn func(i int)) error {
	return parallel.BlocksCtx(ctx, workers, n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if i&(ctxStride-1) == 0 && ctx.Err() != nil {
				return
			}
			fn(i)
		}
	})
}

func initialCentroids(ctx context.Context, points [][]float64, dist DistFunc, cfg Config, rng *rand.Rand, comparisons *int64) ([][]float64, error) {
	n, dim := len(points), len(points[0])
	centroids := make([][]float64, cfg.K)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	workers := cfg.workers()
	switch cfg.Init {
	case InitPlusPlus:
		// k-means++: first centroid uniform, then D²-weighted. The D²
		// scans fan out over points (d2[i] is point i's slot); the
		// RNG-driven selection between scans stays serial so the random
		// sequence is identical at any worker count.
		copy(centroids[0], points[rng.IntN(n)])
		d2 := make([]float64, n)
		if err := d2Scan(ctx, workers, n, func(i int) {
			d := dist(points[i], centroids[0])
			d2[i] = d * d
		}); err != nil {
			return nil, err
		}
		*comparisons += int64(n)
		for c := 1; c < cfg.K; c++ {
			var total float64
			for _, v := range d2 {
				total += v
			}
			var idx int
			if total <= 0 {
				idx = rng.IntN(n)
			} else {
				target := rng.Float64() * total
				for idx = 0; idx < n-1; idx++ {
					target -= d2[idx]
					if target <= 0 {
						break
					}
				}
			}
			copy(centroids[c], points[idx])
			cent := centroids[c]
			if err := d2Scan(ctx, workers, n, func(i int) {
				d := dist(points[i], cent)
				if dd := d * d; dd < d2[i] {
					d2[i] = dd
				}
			}); err != nil {
				return nil, err
			}
			*comparisons += int64(n)
		}
	default:
		// Distinct random points via partial Fisher–Yates.
		perm := rng.Perm(n)
		for c := 0; c < cfg.K; c++ {
			copy(centroids[c], points[perm[c]])
		}
	}
	return centroids, nil
}

// Spread returns Σᵢ dist(pointᵢ, centroid of its cluster) — the cluster
// divergence measure behind Definition 11 ("the spread is the sum of the
// divergence of each cluster from the centroid of that cluster").
func Spread(points [][]float64, assign []int, centroids [][]float64, dist DistFunc) float64 {
	var total float64
	for i, p := range points {
		total += dist(p, centroids[assign[i]])
	}
	return total
}

// CentroidsOf recomputes mean centroids for an existing assignment, used
// when evaluating a sketch-space clustering against exact tile data (the
// assignment transfers; the centroids must be rebuilt in tile space).
func CentroidsOf(points [][]float64, assign []int, k int) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	centroids := make([][]float64, k)
	counts := make([]int, k)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			centroids[c][j] += v
		}
	}
	for c := range centroids {
		if counts[c] > 0 {
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
	}
	return centroids
}
