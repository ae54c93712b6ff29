package tabmine

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// TestEndToEndSketchClustering exercises the whole public surface the way
// the package documentation advertises: generate data, tile it, sketch
// the tiles, cluster in sketch space, and score against an exact run.
func TestEndToEndSketchClustering(t *testing.T) {
	tb, meta, err := GenerateCallVolume(CallVolumeConfig{Stations: 96, Days: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Centers) == 0 {
		t.Fatal("no population centers generated")
	}
	const tileRows = 8
	grid, err := NewGrid(tb.Rows(), tb.Cols(), tileRows, BucketsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	tiles := grid.Tiles(tb)

	const p, sketchK, clusters = 1.0, 128, 5
	sk, err := NewSketcher(p, sketchK, tileRows, BucketsPerDay, 7)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	sketchRes, err := KMeans(points, sk.Distance, KMeansConfig{K: clusters, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	lp := MustP(p)
	exactRes, err := KMeans(tiles, lp.Dist, KMeansConfig{K: clusters, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	agree, err := Agreement(exactRes.Assign, sketchRes.Assign, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if agree < 0.4 {
		t.Errorf("sketch/exact clustering agreement %v implausibly low", agree)
	}

	// Quality (Definition 11): both spreads in tile space with exact Lp.
	exactSpread := Spread(tiles, exactRes.Assign, CentroidsOf(tiles, exactRes.Assign, clusters), lp.Dist)
	sketchSpread := Spread(tiles, sketchRes.Assign, CentroidsOf(tiles, sketchRes.Assign, clusters), lp.Dist)
	q, err := Quality(exactSpread, sketchSpread)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.6 || q > 1.7 {
		t.Errorf("clustering quality %v outside sane band", q)
	}
}

func TestFacadeTableRoundTrip(t *testing.T) {
	tb := NewTable(4, 4)
	tb.Set(2, 2, 5)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tb, true); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(2, 2) != 5 {
		t.Error("binary roundtrip lost data")
	}
	buf.Reset()
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(2, 2) != 5 {
		t.Error("CSV roundtrip lost data")
	}
}

func TestFacadePoolAndCache(t *testing.T) {
	tb, _, err := GenerateCallVolume(CallVolumeConfig{Stations: 32, Days: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(tb, 1, 32, 5, PoolOptions{
		MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := Rect{R0: 0, C0: 0, Rows: 8, Cols: 8}
	b := Rect{R0: 16, C0: 40, Rows: 8, Cols: 8}
	dPool, err := pool.Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSketcher(1, 512, 8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(tb, sk)
	dCache := cache.Distance(a, b)
	exact := MustP(1).Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
	for name, d := range map[string]float64{"pool": dPool, "cache": dCache} {
		if rel := math.Abs(d-exact) / exact; rel > 0.5 {
			t.Errorf("%s distance %v far from exact %v", name, d, exact)
		}
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats (%d, %d), want (0, 2)", hits, misses)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if k, err := KForAccuracy(0.1, 0.05); err != nil || k < 100 {
		t.Errorf("KForAccuracy = %d, %v", k, err)
	}
	if b := StableMedianAbs(1); b != 1 {
		t.Errorf("StableMedianAbs(1) = %v", b)
	}
	if Hamming([]float64{1, 2}, []float64{1, 3}) != 1 {
		t.Error("Hamming wrong")
	}
	d, err := GenerateSixRegions(SixRegionsConfig{Rows: 32, Cols: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Table.Rows() != 32 {
		t.Error("six regions dims wrong")
	}
	day1 := NewTable(4, 6)
	day2 := NewTable(4, 6)
	st, err := Stitch(day1, day2)
	if err != nil || st.Cols() != 12 {
		t.Errorf("Stitch: %v, cols %d", err, st.Cols())
	}
}

func TestFacadeNewAlgorithms(t *testing.T) {
	points := [][]float64{{0}, {1}, {2}, {50}, {51}, {52}}
	lp := MustP(1)

	med, err := KMedoids(points, lp.Dist, KMeansConfig{K: 2, Seed: 1, Init: InitPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	if med.Assign[0] != med.Assign[1] || med.Assign[0] == med.Assign[5] {
		t.Errorf("k-medoids assignment %v", med.Assign)
	}

	merges, err := Agglomerative(points, lp.Dist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := CutDendrogram(merges, len(points), 2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[2] || labels[0] == labels[3] {
		t.Errorf("dendrogram cut %v", labels)
	}
}

func TestFacadeStore(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDay("d0", NewTable(4, 6), true); err != nil {
		t.Fatal(err)
	}
	day, err := s.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	if day.Cols() != 6 {
		t.Error("store day dims wrong")
	}
}

// TestFullPipeline exercises the complete production flow: days arrive
// into an on-disk store, a range is loaded stitched, sketched, clustered,
// scored, and rendered — every subsystem touching every other.
func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		day, _, err := GenerateCallVolume(CallVolumeConfig{
			Stations: 64, Days: 1, Seed: uint64(10 + d),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendDay(fmt.Sprintf("day-%d", d), day, true); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen cold (fresh process simulation) and load a stitched range.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := store2.LoadRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cols() != 3*BucketsPerDay {
		t.Fatalf("stitched cols %d", tb.Cols())
	}

	// Tile, sketch, cluster.
	const tileRows, clusters = 8, 4
	grid, err := NewGrid(tb.Rows(), tb.Cols(), tileRows, BucketsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	tiles := grid.Tiles(tb)
	sk, err := NewSketcher(1, 128, tileRows, BucketsPerDay, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, len(tiles))
	for i, tile := range tiles {
		points[i] = sk.Sketch(tile, nil)
	}
	res, err := KMeans(points, sk.Distance, KMeansConfig{K: clusters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Render as ASCII.
	m := &ClusterMap{
		GridRows: grid.GridRows(), GridCols: grid.GridCols(),
		K: clusters, Assign: res.Assign,
	}
	art, err := m.Render(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(art) == 0 {
		t.Error("empty ASCII render")
	}
}

func TestFacadeRemainingWrappers(t *testing.T) {
	// File-path table I/O.
	dir := t.TempDir()
	path := dir + "/t.tabf"
	tb := NewTable(2, 2)
	tb.Set(1, 1, 9)
	if err := WriteTableFile(path, tb, false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableFile(path)
	if err != nil || got.At(1, 1) != 9 {
		t.Fatalf("file roundtrip: %v, %v", got, err)
	}

	// Constructors.
	if _, err := TableFromData(2, 2, make([]float64, 3)); err == nil {
		t.Error("TableFromData bad length: expected error")
	}
	ft, err := TableFromRows([][]float64{{1, 2}})
	if err != nil || ft.Cols() != 2 {
		t.Error("TableFromRows failed")
	}
	if _, err := NewP(9); err == nil {
		t.Error("NewP(9): expected error")
	}

	// Pool options default covers the table.
	opts := DefaultPoolOptions(tb)
	if opts.MaxLogRows != 1 || opts.MaxLogCols != 1 {
		t.Errorf("DefaultPoolOptions = %+v", opts)
	}

	// Traffic generator.
	tr, err := GenerateTraffic(TrafficConfig{Hosts: 16, Days: 1, Seed: 1})
	if err != nil || tr.Rows() != 16 {
		t.Fatalf("GenerateTraffic: %v", err)
	}

	// BestOf.
	points := [][]float64{{0}, {0.1}, {10}, {10.1}}
	best, err := BestOf(2, 1, func(seed uint64) (*KMeansResult, error) {
		return KMeans(points, MustP(2).Dist, KMeansConfig{K: 2, Seed: seed})
	})
	if err != nil || best == nil {
		t.Fatalf("BestOf: %v", err)
	}

	// Analytic B(p).
	v, err := StableMedianAbsAnalytic(1.5)
	if err != nil || v <= 0 {
		t.Errorf("StableMedianAbsAnalytic: %v, %v", v, err)
	}
}
