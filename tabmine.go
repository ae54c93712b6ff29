// Package tabmine is the public API of this reproduction of Cormode,
// Indyk, Koudas & Muthukrishnan, "Fast Mining of Massive Tabular Data via
// Approximate Distance Computations" (ICDE 2002).
//
// The library mines massive tabular data (station × time call volumes,
// host × time traffic matrices, ...) by replacing the expensive inner
// operation — the Lp distance between two subtables — with small
// p-stable sketches:
//
//   - Table holds dense tabular data; Grid partitions it into the tiles
//     mining algorithms operate on; ReadTable/WriteTable persist tables as
//     (optionally gzip-compressed) flat files, ReadCSV/WriteCSV
//     interoperate with text tools.
//   - Sketcher builds Lp sketches for a fixed tile size, for any
//     p ∈ (0, 2] — classical p = 1, 2 or the fractional p the paper
//     advocates — with the (1±ε) estimation guarantee of Theorems 1–2.
//   - Sketcher.AllPositions precomputes sketches for every tile position
//     of a table in O(k·N·log N) via FFT (Theorem 3); Pool does the same
//     for a canonical family of dyadic tile sizes and answers sketch and
//     distance queries for arbitrary rectangles in O(k) (Theorems 5–6).
//   - Cache implements sketch-on-demand (Section 4.4's second scenario).
//   - KMeans clusters tiles under any distance — exact Lp via P, or
//     sketched — and the evaluation helpers (Cumulative, Average,
//     Pairwise, Agreement, Quality) score estimators and clusterings the
//     way the paper's Section 4.1 does.
//
// A minimal end-to-end flow:
//
//	tb, _, _ := tabmine.GenerateCallVolume(tabmine.CallVolumeConfig{Stations: 192, Days: 4, Seed: 1})
//	grid, _ := tabmine.NewGrid(tb.Rows(), tb.Cols(), 16, 144)
//	tiles := grid.Tiles(tb)
//	sk, _ := tabmine.NewSketcher(0.5, 128, 16, 144, 1)
//	points := make([][]float64, len(tiles))
//	for i, tile := range tiles {
//		points[i] = sk.Sketch(tile, nil)
//	}
//	res, _ := tabmine.KMeans(points, sk.Distance, tabmine.KMeansConfig{K: 20, Seed: 1})
//	_ = res.Assign // tile -> cluster
//
// Sketcher.Distance borrows its selection scratch from a pool, so the
// comparisons of this flow allocate nothing once warm.
//
// # Concurrency
//
// The hot paths fan out over a shared worker-pool layer with a strict
// determinism contract: per-matrix and per-point results are written to
// disjoint pre-allocated slots, never combined by a scheduling-dependent
// reduction, so the same seed yields byte-identical sketches and cluster
// assignments at ANY worker count. The knobs:
//
//   - Sketcher.SetWorkers bounds the fan-out of Sketch and AllPositions
//     over the k random matrices (0, the default, means all cores).
//   - PoolOptions.Workers bounds dyadic plane-set construction.
//   - KMeansConfig.Workers parallelizes the assignment step of KMeans and
//     KMedoids; it defaults to 0 = serial because the dist callback must
//     be safe for concurrent use before fanning out — Sketcher.Distance
//     (reentrant, allocation-free) is, as is any pure function such as
//     P.Dist; set Workers < 0 for all cores.
//
// Sketcher (after SetWorkers), Pool, PlaneSet and the evaluation helpers
// are safe for concurrent use. Cache mutates internal state on use and is
// single-goroutine only.
//
// # Fault tolerance
//
// Long-running entry points take an optional context for cooperative
// cancellation: Sketcher.AllPositionsCtx, PoolOptions.Context (NewPool),
// and KMeansConfig.Context (KMeans, KMedoids). A cancelled run returns
// the context's error promptly and publishes no partial state; a run
// that completes is byte-identical whether or not a context was set. A
// panic on a worker goroutine is recovered and returned as a
// *PanicError (carrying the panic value and worker stack) instead of
// crashing the process.
//
// Persistence is crash-safe and self-checking: Store appends day files
// atomically with checksums recorded in the manifest, and Store.Fsck
// verifies and repairs a store after a crash or disk corruption. A Pool
// is rebuilt from its table, not saved: the one on-disk form of sketches
// is the serving store's segment files (tabmine-serve -store), derived
// from the day files and refused on any sketch-parameter mismatch.
//
// See the package examples for complete programs and DESIGN.md for how
// each component maps onto the paper.
package tabmine

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/lpnorm"
	"repro/internal/parallel"
	"repro/internal/stable"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/vizascii"
	"repro/internal/workload"
)

// Table is a dense rows×cols table of float64 values.
type Table = table.Table

// Rect identifies a subtable rectangle.
type Rect = table.Rect

// Grid partitions a table into equal tiles.
type Grid = table.Grid

// Stats summarizes a table.
type Stats = table.Stats

// NewTable allocates a zeroed rows×cols table.
func NewTable(rows, cols int) *Table { return table.New(rows, cols) }

// TableFromData wraps a row-major slice as a table without copying.
func TableFromData(rows, cols int, data []float64) (*Table, error) {
	return table.FromData(rows, cols, data)
}

// TableFromRows copies a slice of equal-length rows into a table.
func TableFromRows(rows [][]float64) (*Table, error) { return table.FromRows(rows) }

// NewGrid describes tiling a tableRows×tableCols table into
// tileRows×tileCols tiles.
func NewGrid(tableRows, tableCols, tileRows, tileCols int) (*Grid, error) {
	return table.NewGrid(tableRows, tableCols, tileRows, tileCols)
}

// Stitch concatenates tables along the time axis (e.g. consecutive days).
func Stitch(tables ...*Table) (*Table, error) { return table.Stitch(tables...) }

// ReadTable reads a binary table file written by WriteTable.
func ReadTable(r io.Reader) (*Table, error) { return tabfile.Read(r) }

// WriteTable writes a table as a binary flat file, gzipped if compress.
func WriteTable(w io.Writer, t *Table, compress bool) error { return tabfile.Write(w, t, compress) }

// ReadTableFile and WriteTableFile are the path-based variants.
func ReadTableFile(path string) (*Table, error) { return tabfile.ReadFile(path) }

// WriteTableFile writes a table to path in the binary format.
func WriteTableFile(path string, t *Table, compress bool) error {
	return tabfile.WriteFile(path, t, compress)
}

// ReadCSV parses numeric CSV into a table; WriteCSV does the reverse.
func ReadCSV(r io.Reader) (*Table, error) { return tabfile.ReadCSV(r) }

// WriteCSV emits a table as CSV.
func WriteCSV(w io.Writer, t *Table) error { return tabfile.WriteCSV(w, t) }

// P is a validated Lp exponent providing exact norms and distances.
type P = lpnorm.P

// NewP validates an Lp exponent in (0, 2].
func NewP(p float64) (P, error) { return lpnorm.NewP(p) }

// MustP is NewP that panics on error.
func MustP(p float64) P { return lpnorm.MustP(p) }

// Hamming counts differing entries (the p → 0 limit).
func Hamming(x, y []float64) int { return lpnorm.Hamming(x, y) }

// Sketcher builds Lp sketches for one tile size.
type Sketcher = core.Sketcher

// PlaneSet holds precomputed sketches for every tile position.
type PlaneSet = core.PlaneSet

// Pool holds plane sets for canonical dyadic sizes and answers arbitrary-
// rectangle sketch queries via compound sketches.
type Pool = core.Pool

// PoolOptions configures the dyadic size range of a Pool.
type PoolOptions = core.PoolOptions

// Cache memoizes sketches computed on demand. It mutates internal state
// on every query and is documented single-goroutine: do not share one
// Cache across goroutines (unlike Sketcher, Pool and PlaneSet, which are
// safe for concurrent use).
type Cache = core.Cache

// NewSketcher builds a Sketcher for p ∈ (0,2] with k entries over
// rows×cols tiles. p picks the distance estimator: the median of the
// sketch differences over B(p) for p < 2, their L2 norm at p = 2.
func NewSketcher(p float64, k, rows, cols int, seed uint64) (*Sketcher, error) {
	return core.NewSketcher(p, k, rows, cols, seed)
}

// NewPool precomputes dyadic sketch plane sets over t (Theorem 6).
func NewPool(t *Table, p float64, k int, seed uint64, opts PoolOptions) (*Pool, error) {
	return core.NewPool(t, p, k, seed, opts)
}

// DefaultPoolOptions covers every dyadic size fitting t.
func DefaultPoolOptions(t *Table) PoolOptions { return core.DefaultPoolOptions(t) }

// NewCache wraps t with sketch-on-demand behaviour.
func NewCache(t *Table, sk *Sketcher) *Cache { return core.NewCache(t, sk) }

// KForAccuracy sizes a sketch for a (1±eps) guarantee at confidence
// 1-delta.
func KForAccuracy(eps, delta float64) (int, error) { return core.KForAccuracy(eps, delta) }

// KForAccuracyAtP sizes a sketch for a (1±eps) guarantee at confidence
// 1-delta with the exact p-dependent constant (computed from the stable
// law's CDF; p ≥ 0.3). Prefer this over KForAccuracy for fractional p —
// the generic constant undersizes heavy-tailed sketches by an order of
// magnitude at p = 0.5.
func KForAccuracyAtP(p, eps, delta float64) (int, error) {
	return core.KForAccuracyAtP(p, eps, delta)
}

// StableMedianAbs returns the estimator scaling factor B(α).
func StableMedianAbs(alpha float64) float64 { return stable.MedianAbs(alpha) }

// KMeansConfig configures a clustering run.
type KMeansConfig = cluster.Config

// KMeansResult reports a clustering.
type KMeansResult = cluster.Result

// DistFunc measures distance between two equal-length points.
type DistFunc = cluster.DistFunc

// Init methods for KMeans.
const (
	InitRandom   = cluster.InitRandom
	InitPlusPlus = cluster.InitPlusPlus
)

// KMeans clusters points under dist (exact or sketched).
func KMeans(points [][]float64, dist DistFunc, cfg KMeansConfig) (*KMeansResult, error) {
	return cluster.KMeans(points, dist, cfg)
}

// Spread sums each point's distance to its cluster centroid.
func Spread(points [][]float64, assign []int, centroids [][]float64, dist DistFunc) float64 {
	return cluster.Spread(points, assign, centroids, dist)
}

// CentroidsOf rebuilds mean centroids for an existing assignment.
func CentroidsOf(points [][]float64, assign []int, k int) [][]float64 {
	return cluster.CentroidsOf(points, assign, k)
}

// Accuracy measures of Section 4.1 (Definitions 7–11).
var (
	// Cumulative is Σ estimated / Σ exact (Definition 7).
	Cumulative = evalmetrics.Cumulative
	// Average is the mean per-experiment relative agreement (Definition 8).
	Average = evalmetrics.Average
	// Pairwise scores "closer to Y or Z?" agreement (Definition 9).
	Pairwise = evalmetrics.Pairwise
	// Agreement is the matched confusion-matrix diagonal (Definition 10).
	Agreement = evalmetrics.Agreement
	// Quality is the exact/sketch spread ratio (Definition 11).
	Quality = evalmetrics.Quality
)

// Triple is one pairwise-comparison experiment for Pairwise.
type Triple = evalmetrics.Triple

// CallVolumeConfig parameterizes the synthetic call-volume generator.
type CallVolumeConfig = workload.CallVolumeConfig

// CallVolumeMeta describes the generated structure.
type CallVolumeMeta = workload.CallVolumeMeta

// SixRegionsConfig parameterizes the planted-clustering dataset.
type SixRegionsConfig = workload.SixRegionsConfig

// SixRegions is the planted-clustering dataset with ground truth.
type SixRegions = workload.SixRegions

// GenerateCallVolume builds a synthetic station×time call-volume table
// (see DESIGN.md for how it substitutes for the paper's AT&T data).
func GenerateCallVolume(cfg CallVolumeConfig) (*Table, *CallVolumeMeta, error) {
	return workload.CallVolume(cfg)
}

// GenerateSixRegions builds the six-region synthetic dataset of §4.2.
func GenerateSixRegions(cfg SixRegionsConfig) (*SixRegions, error) {
	return workload.NewSixRegions(cfg)
}

// BucketsPerDay is the paper's time resolution (10-minute buckets).
const BucketsPerDay = workload.BucketsPerDay

// Linkage selects the agglomerative merge criterion.
type Linkage = cluster.Linkage

// Linkage choices for Agglomerative.
const (
	SingleLinkage   = cluster.SingleLinkage
	CompleteLinkage = cluster.CompleteLinkage
	AverageLinkage  = cluster.AverageLinkage
)

// Merge is one dendrogram step produced by Agglomerative.
type Merge = cluster.Merge

// KMedoids clusters points around medoids (actual data points) — the
// mean-free alternative to KMeans, well-defined for any distance
// including sketched fractional-p distances.
func KMedoids(points [][]float64, dist DistFunc, cfg KMeansConfig) (*KMeansResult, error) {
	return cluster.KMedoids(points, dist, cfg)
}

// Agglomerative builds a bottom-up hierarchical clustering and returns
// the dendrogram merges; CutDendrogram flattens it to k clusters.
func Agglomerative(points [][]float64, dist DistFunc, linkage Linkage) ([]Merge, error) {
	return cluster.Agglomerative(points, dist, linkage)
}

// CutDendrogram flattens a dendrogram over n points into k cluster labels.
func CutDendrogram(merges []Merge, n, k int) ([]int, error) {
	return cluster.CutDendrogram(merges, n, k)
}

// Store is a day-partitioned on-disk table store (one binary table file
// per day plus a manifest); days load individually or stitched.
type Store = tabstore.Store

// OpenStore opens or initializes a store rooted at dir.
func OpenStore(dir string) (*Store, error) { return tabstore.Open(dir) }

// ClusterMap renders a tile-grid clustering as ASCII art (the Figure 5
// medium).
type ClusterMap = vizascii.Map

// StableMedianAbsAnalytic computes B(α) by Fourier inversion of the
// characteristic function (exact up to quadrature tolerance); available
// for α ≥ 0.3. StableMedianAbs dispatches to it automatically.
func StableMedianAbsAnalytic(alpha float64) (float64, error) {
	return stable.MedianAbsAnalytic(alpha)
}

// TrafficConfig parameterizes the synthetic router-traffic generator.
type TrafficConfig = workload.TrafficConfig

// GenerateTraffic builds a synthetic host×time traffic table (the
// paper's IP-router motivating application).
func GenerateTraffic(cfg TrafficConfig) (*Table, error) { return workload.Traffic(cfg) }

// BestOf reruns a stochastic clustering with derived seeds and returns
// the run with the smallest spread (the algorithm's own objective).
var BestOf = cluster.BestOf

// ErrNonFinite is wrapped by the table constructors and the file readers
// when a cell is NaN or ±Inf: non-finite values are rejected at ingress
// because they would silently poison every sketch derived from the
// table. Check with errors.Is.
var ErrNonFinite = table.ErrNonFinite

// PanicError is how a panic on a worker goroutine surfaces from the
// context-aware entry points (NewPool with a Context, AllPositionsCtx,
// KMeans/KMedoids with a Context): recovered, wrapped with the worker's
// stack, and returned as an error. Check with errors.As.
type PanicError = parallel.PanicError

// StoreFsckReport is what Store.Fsck found and repaired.
type StoreFsckReport = tabstore.FsckReport
