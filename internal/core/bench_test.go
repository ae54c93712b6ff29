package core

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/table"
)

// The two pool shapes of the gated benchmark (benchmark/fixture.go,
// benchmark/ingest.go), timed without the fleet around them; each
// reports ns per packed-pair round trip beside ns/op.
const benchK, benchLogTile = 64, 5

func benchPoolOptions(panelCols int) PoolOptions {
	return PoolOptions{
		MinLogRows: benchLogTile, MaxLogRows: benchLogTile,
		MinLogCols: benchLogTile, MaxLogCols: benchLogTile,
		PanelCols: panelCols, Workers: 1,
	}
}

func reportRoundTrips(b *testing.B, corr0 int64) {
	trips := float64(fft.CorrelationCount() - corr0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/trips, "ns/roundtrip")
	b.ReportMetric(trips/float64(b.N), "roundtrips/op")
}

// BenchmarkPoolBuildFixture is the serve_* fixture's set-up: NewPool
// without PanelCols (one table-wide panel) over a 256×1024 table, one
// 32×32 size, four sets of k=64.
func BenchmarkPoolBuildFixture(b *testing.B) {
	tb := randTable(rand.New(rand.NewPCG(51, 51)), 256, 1024)
	b.ResetTimer()
	corr0 := fft.CorrelationCount()
	for i := 0; i < b.N; i++ {
		if _, err := NewPool(tb, 1, benchK, 7, benchPoolOptions(0)); err != nil {
			b.Fatal(err)
		}
	}
	reportRoundTrips(b, corr0)
}

// BenchmarkPoolBuildDefault is the multi-size build: DefaultPoolOptions
// over a 96×144 table (6 × 7 sizes from 2×2 to 64×128, four sets of
// k=16), every size correlating against the one table spectrum.
func BenchmarkPoolBuildDefault(b *testing.B) {
	tb := randTable(rand.New(rand.NewPCG(54, 54)), 96, 144)
	opts := DefaultPoolOptions(tb)
	opts.Workers = 1
	b.ResetTimer()
	corr0 := fft.CorrelationCount()
	for i := 0; i < b.N; i++ {
		if _, err := NewPool(tb, 1, 16, 7, opts); err != nil {
			b.Fatal(err)
		}
	}
	reportRoundTrips(b, corr0)
}

// BenchmarkAppendDay is ingest_live's unit of work: Pool.Append of one
// 128×32 day (PanelCols = day width = tile width) onto a pool whose two
// earlier days are sealed, as the ingester's always are. roundtrips/op
// is the correlations a day costs: one panel, 4 sets × k/2.
func BenchmarkAppendDay(b *testing.B) {
	const rows, day = 128, 32
	full := randTable(rand.New(rand.NewPCG(52, 52)), rows, 3*day)
	heap, err := NewPool(full.Sub(table.Rect{Rows: rows, Cols: 2 * day}), 1, benchK, 7, benchPoolOptions(day))
	if err != nil {
		b.Fatal(err)
	}
	base, err := heap.Reband(0, sealFromPool(b, heap, heap.SealableCols(), day))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	corr0 := fft.CorrelationCount()
	for i := 0; i < b.N; i++ {
		if _, err := base.Append(context.Background(), full); err != nil {
			b.Fatal(err)
		}
	}
	reportRoundTrips(b, corr0)
}

// The serving side of the same fixture: the sketch tier's two reads of
// the pool, on uniformly random compound rectangles (sides in [33, 63],
// never the pooled size) — enough of them that their 4 × 256-byte
// corners are not in any cache when they come round again.
var benchFixture struct {
	once  sync.Once
	pool  *Pool
	rects []table.Rect // pairs of equal size: rects[2i], rects[2i+1]
}

func benchFixturePool(b *testing.B) (*Pool, []table.Rect) {
	benchFixture.once.Do(func() {
		const rows, cols = 256, 1024
		rng := rand.New(rand.NewPCG(53, 53))
		pool, err := NewPool(randTable(rng, rows, cols), 1, benchK, 7, benchPoolOptions(0))
		if err != nil {
			b.Fatal(err)
		}
		rects := make([]table.Rect, 1<<15)
		for i := 0; i < len(rects); i += 2 {
			h, w := 33+rng.IntN(31), 33+rng.IntN(31)
			for j := 0; j < 2; j++ {
				rects[i+j] = table.Rect{R0: rng.IntN(rows - h + 1), C0: rng.IntN(cols - w + 1), Rows: h, Cols: w}
			}
		}
		benchFixture.pool, benchFixture.rects = pool, rects
	})
	return benchFixture.pool, benchFixture.rects
}

// BenchmarkPoolSketchCompoundCold is one Pool.Sketch of a compound
// rectangle whose four positions are cold: what a GET distance pays
// twice and a shard sub-query once an item.
func BenchmarkPoolSketchCompoundCold(b *testing.B) {
	pool, rects := benchFixturePool(b)
	dst := make([]float64, benchK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Sketch(rects[i%len(rects)], dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceBatch64 is the kernel under POST /v1/batch/distance
// at the benchmark's batch size: 64 compound pairs, a different 64 each
// iteration.
func BenchmarkDistanceBatch64(b *testing.B) {
	const n = 64
	pool, rects := benchFixturePool(b)
	as, bs := make([]table.Rect, n), make([]table.Rect, n)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range as {
			at := (i*n + j) * 2 % len(rects)
			as[j], bs[j] = rects[at], rects[at+1]
		}
		if _, err := pool.DistanceBatch(as, bs, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
}

// BenchmarkGather is the read under every sketch-tier answer with the
// rectangle already resolved to its corners: one position widened (an
// exactly dyadic rectangle) or four summed (a compound one), warm — the
// same four positions every time — and cold — seeded random positions of
// the fixture pool, more of them than any cache holds. It calls only
// corners and gather, so it pastes into a copy of an earlier commit.
func BenchmarkGather(b *testing.B) {
	pool, rects := benchFixturePool(b)
	const tile = 1 << benchLogTile
	for _, shape := range []string{"exact", "compound"} {
		cns := make([]corners, len(rects))
		for i, rect := range rects {
			if shape == "exact" {
				rect = table.Rect{R0: rect.R0, C0: rect.C0, Rows: tile, Cols: tile}
			}
			var err error
			if cns[i], err = pool.corners(rect); err != nil {
				b.Fatal(err)
			}
		}
		dst := make([]float64, benchK)
		b.Run(shape+"/warm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gather(dst, &cns[0])
			}
		})
		b.Run(shape+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gather(dst, &cns[i%len(cns)])
			}
		})
	}
}
