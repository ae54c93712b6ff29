package fft

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
)

// BenchmarkCorrelateBlock times one full block (BlockLanes lanes,
// BlockLanes/2 packed pair round trips) at the three shapes the gated
// benchmark builds pools at, harvest included, and reports ns per round
// trip:
//
//   - fixture: the 256×1024 table against 32×32 kernels, written at
//     column stride 64 into the plane set of a k=64 sketcher — 225 × 993
//     positions of 64 bfloat16 lanes, 27.3 MiB — the stride the
//     benchmark's own stride-1 fft.correlate_us probe cannot see.
//     Successive ops take successive blocks, as a build does.
//   - shard: one of the fixture's two 256×512 column shards, as each
//     coordinated shard builds it.
//   - slab: the 128×63 slab of a one-day panel (32 anchors + 31 columns
//     of overlap), harvested to 32 columns (a complete panel: an append
//     completes its panels, so every day harvests 32) and to 1 (only
//     panel 0 of a panel build harvests one column).
func BenchmarkCorrelateBlock(b *testing.B) {
	const k, edge = 64, 32
	rng := rand.New(rand.NewPCG(41, 41))
	kernels := make([][]float64, BlockLanes)
	for i := range kernels {
		kernels[i] = randSlice(rng, edge*edge)
	}
	run := func(b *testing.B, p *Plan2D, subCols, planeCols int) {
		outRows, _ := p.OutDims(edge, edge)
		dst := make([]Lane, outRows*planeCols*k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lane0 := i % (k / BlockLanes) * BlockLanes
			if err := p.CorrelateBlockValidSub(context.Background(), kernels, edge, edge, subCols,
				dst[lane0:], planeCols*k, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(BlockLanes/2), "ns/roundtrip")
	}
	for _, shape := range []struct {
		name       string
		rows, cols int
	}{{"fixture", 256, 1024}, {"shard", 256, 512}} {
		b.Run(shape.name, func(b *testing.B) {
			p := NewPlan2D(randSlice(rng, shape.rows*shape.cols), shape.rows, shape.cols)
			run(b, p, shape.cols-edge+1, shape.cols-edge+1)
		})
	}
	const rows, slab, planeCols = 128, 2*edge - 1, 2 * edge
	p := NewPlan2D(randSlice(rng, rows*slab), rows, slab)
	b.Run("slab/sub32", func(b *testing.B) { run(b, p, 32, planeCols) })
	b.Run("slab/sub1", func(b *testing.B) { run(b, p, 1, planeCols) })
}

// BenchmarkRowTransform times one contiguous forward or inverse transform
// of n points, the row pass of every round trip, on each encoding (go,
// and avx2 where the CPU has it), in ns a row: 32 and 512 end in the
// span-2 tail, 64 and 1024 in the span-4 tail; 64 is the ingest slab's
// padded width and 1024 the fixture's. The row is transformed again and
// again, growing to ±Inf and NaN, which cost an x86 vector unit nothing
// extra (only subnormals would).
func BenchmarkRowTransform(b *testing.B) {
	cpu.EachEncoding(b, func(b *testing.B) {
		for _, n := range []int{32, 64, 512, 1024} {
			k := kernelFor(n)
			rng := rand.New(rand.NewPCG(43, uint64(n)))
			row := make([]complex128, n)
			for i := range row {
				row[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for _, dir := range []struct {
				name string
				run  func([]complex128)
			}{{"forward", k.forward}, {"inverse", k.inverse}} {
				b.Run(fmt.Sprintf("n=%d/%s", n, dir.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						dir.run(row)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
				})
			}
		}
	})
}
