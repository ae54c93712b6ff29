package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/table"
)

// BenchmarkLaneDigests is the lane-identity driver of `make lanehash`,
// not a timing: it builds the pool shapes the gated benchmark serves and
// ingests, over seeded uniform tables (uniformTable) at seeds 1 and 2,
// and logs one SHA-256 over every lane of each (lane ids and
// CopyLaneBand of every column, in Pool.Lanes order) with the round
// trips the build counted. A build change that must keep
// every lane prints the same lines before and after it, and under
// GOARCH=386, whose FFT runs the portable Go encoding. It calls exported
// API only, so the Makefile copies this file into a checkout of another
// commit to run the same shapes there. Run it with -benchtime 1x.
func BenchmarkLaneDigests(b *testing.B) {
	for _, seed := range []uint64{1, 2} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) { laneDigests(b, seed) })
	}
}

// laneDigests logs the five shapes' digests at one seed; a sub-benchmark
// a seed keeps each under the ten lines a benchmark's log may print.
func laneDigests(b *testing.B, seed uint64) {
	const k, logTile, day = 64, 5, 32
	one := core.PoolOptions{MinLogRows: logTile, MaxLogRows: logTile, MinLogCols: logTile, MaxLogCols: logTile}
	pseed := seed ^ 0x706f6f6c // the benchmark's pool seed
	fixture := uniformTable(b, 256, 1024, seed)
	for _, shard := range []struct {
		name   string
		c0, c1 int
	}{{"fixture", 0, 1024}, {"shard[0,512)", 0, 512}, {"shard[512,1024)", 512, 1024}} {
		opts := one
		opts.BaseCol = shard.c0
		sub := fixture.Sub(table.Rect{Rows: 256, C0: shard.c0, Cols: shard.c1 - shard.c0})
		logDigest(b, shard.name, seed, func() (*core.Pool, error) { return core.NewPool(sub, 1, k, pseed, opts) })
	}

	// The ingest window: 15 days built in day-wide panels, then a
	// 16th appended.
	days := uniformTable(b, 128, 16*day, seed)
	logDigest(b, "ingest 15+1 days", seed, func() (*core.Pool, error) {
		opts := one
		opts.PanelCols = day
		pool, err := core.NewPool(days.Sub(table.Rect{Rows: 128, Cols: 15 * day}), 1, k, pseed, opts)
		if err != nil {
			return nil, err
		}
		return pool.Append(context.Background(), days)
	})

	small := uniformTable(b, 96, 144, seed)
	logDigest(b, "default 96x144 k=16", seed, func() (*core.Pool, error) {
		return core.NewPool(small, 1, 16, pseed, core.DefaultPoolOptions(small))
	})
}

// uniformTable is a rows × cols table of seeded uniform values in
// [0, 1000): integer arithmetic and one conversion an element, so the
// same bits on every architecture. (The call-volume generator calls
// math.Exp, which is assembly on amd64 and Go on 386, and the two
// differ in the last bit.)
func uniformTable(b *testing.B, rows, cols int, seed uint64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, 0x1a9e))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = 1000 * rng.Float64()
	}
	tb, err := table.FromData(rows, cols, data)
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// logDigest builds one pool and logs "lanes: <shape> seed=<s> <sha256>
// correlations=<n>".
func logDigest(b *testing.B, shape string, seed uint64, build func() (*core.Pool, error)) {
	b.Helper()
	corr0 := fft.CorrelationCount()
	pool, err := build()
	if err != nil {
		b.Fatal(err)
	}
	corr := fft.CorrelationCount() - corr0
	_, cols := pool.TableDims()
	h := sha256.New()
	var band []float32
	var buf []byte
	for _, id := range pool.Lanes() {
		fmt.Fprintf(h, "%d,%d,%d;", id.I, id.J, id.S)
		if band, err = pool.CopyLaneBand(id, 0, cols, band); err != nil {
			b.Fatal(err)
		}
		buf = buf[:0]
		for _, v := range band {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.Write(buf)
	}
	b.Logf("lanes: %-20s seed=%d %x correlations=%d", shape, seed, h.Sum(nil), corr)
}
