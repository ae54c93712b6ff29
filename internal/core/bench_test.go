package core

import (
	"context"
	"math/rand/v2"
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

// BenchmarkPoolBuildFixture is the serve_* fixture's set-up: a monolithic
// NewPool over a 256×1024 table, one 32×32 size, four sets of k=64.
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

// BenchmarkPoolAppendDay is ingest_live's unit of work: Pool.Append of
// one 128×32 day onto a two-day panel-mode pool (PanelCols = day width).
func BenchmarkPoolAppendDay(b *testing.B) {
	const rows, day = 128, 32
	full := randTable(rand.New(rand.NewPCG(52, 52)), rows, 3*day)
	base, err := NewPool(full.Sub(table.Rect{Rows: rows, Cols: 2 * day}), 1, benchK, 7, benchPoolOptions(day))
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
