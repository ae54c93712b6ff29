package ingest

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/segstore"
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
