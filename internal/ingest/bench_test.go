package ingest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/workload"
)

// BenchmarkIngestWindow is one pushed day through the ingester at
// ingest_live's geometry — 128 × 32 days, k = 64, one 32 × 32 size,
// PanelCols 32 and an 8-day window over a store pre-filled with 16 days —
// from the record's WAL append to the re-banded pool: Pool.Append and the
// round's trim, compaction and seal, with every fsync. A steady trim
// period of days is pushed before the clock starts, as ingest_live's warm
// phase does. Reports ms, segment bytes written and compactions per day.
func BenchmarkIngestWindow(b *testing.B) {
	const prefill, warm = 16, 7
	dayAt := func(i int) *table.Table { return workload.Random(128, 32, 100, uint64(i+1)) }
	st, err := tabstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < prefill; i++ {
		if err := st.AppendDay(fmt.Sprintf("d%05d", i), dayAt(i), false); err != nil {
			b.Fatal(err)
		}
	}
	ing, err := New(st, Options{
		PoolP: 1, PoolK: 64, PoolSeed: 1,
		Pool:       core.PoolOptions{MinLogRows: 5, MaxLogRows: 5, MinLogCols: 5, MaxLogCols: 5, PanelCols: 32},
		WindowDays: 8, SegmentDir: filepath.Join(b.TempDir(), "segments"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ing.Close()
	ctx := context.Background()
	if err := ing.Resume(ctx); err != nil {
		b.Fatal(err)
	}
	next := prefill
	pushDay := func() {
		var rec bytes.Buffer
		b.StopTimer()
		if err := WriteRecord(&rec, fmt.Sprintf("d%05d", next), dayAt(next), false); err != nil {
			b.Fatal(err)
		}
		next++
		b.StartTimer()
		if _, err := ing.IngestRecord(ctx, &rec); err != nil {
			b.Fatal(err)
		}
		if err := ing.drain(ctx); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		pushDay()
	}
	s0 := segstore.ReadStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushDay()
	}
	b.StopTimer()
	s1 := segstore.ReadStats()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/day")
	b.ReportMetric(float64(s1.BytesWritten-s0.BytesWritten)/n, "seg-bytes/day")
	b.ReportMetric(float64(s1.Compactions-s0.Compactions)/n, "compactions/day")
}

// nopPublisher drops every snapshot: the ingester releases its own
// reference after Publish, so nothing is retained.
type nopPublisher struct{}

func (nopPublisher) Publish(*server.Snapshot) {}

// BenchmarkResumeFirstBoot is the first boot over a pre-filled store at
// ingest_live's geometry — 16 stored days of 128 × 32, an 8-day window,
// k = 64, one 32 × 32 size, PanelCols 32 — from opening the store to
// the first 8-cluster snapshot handed to a publisher that drops it:
// the pool build, the boot's seal and the snapshot build. Each boot
// starts from an empty segment directory; filling the store is outside
// the clock. Reports ms, FFT correlations and segment bytes written per
// boot.
func BenchmarkResumeFirstBoot(b *testing.B) {
	const stored = 16
	dir := b.TempDir()
	st, err := tabstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < stored; i++ {
		if err := st.AppendDay(fmt.Sprintf("d%05d", i), workload.Random(128, 32, 100, uint64(i+1)), false); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	segDir := filepath.Join(b.TempDir(), "segments")
	var corr, segBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0, s0 := fft.CorrelationCount(), segstore.ReadStats()
		st, err := tabstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ing, err := New(st, Options{
			PoolP: 1, PoolK: 64, PoolSeed: 1,
			Pool:       core.PoolOptions{MinLogRows: 5, MaxLogRows: 5, MinLogCols: 5, MaxLogCols: 5, PanelCols: 32},
			WindowDays: 8, SegmentDir: segDir,
			Snapshot:  server.SnapshotConfig{TileRows: 32, TileCols: 32, Clusters: 8, Seed: 1},
			Publisher: nopPublisher{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ing.Resume(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		corr += fft.CorrelationCount() - c0
		segBytes += segstore.ReadStats().BytesWritten - s0.BytesWritten
		ing.Close()
		if err := os.RemoveAll(segDir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/boot")
	b.ReportMetric(float64(corr)/n, "correlations/boot")
	b.ReportMetric(float64(segBytes)/n, "seg-bytes/boot")
}
