package fft

import (
	"context"
	"math/rand/v2"
	"testing"
)

// BenchmarkCorrelateBlock times one full block (BlockLanes lanes,
// BlockLanes/2 packed pair round trips) at the two shapes the gated
// benchmark builds pools at, harvest included, and reports ns per round
// trip:
//
//   - fixture: the 256×1024 table against 32×32 kernels, written at
//     column stride 64 into the 57 MiB plane set of a k=64 sketcher —
//     the stride the benchmark's own stride-1 fft.correlate_us probe
//     cannot see. Successive ops take successive blocks, as a build does.
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
	b.Run("fixture", func(b *testing.B) {
		const rows, cols = 256, 1024
		p := NewPlan2D(randSlice(rng, rows*cols), rows, cols)
		run(b, p, cols-edge+1, cols-edge+1)
	})
	const rows, slab, planeCols = 128, 2*edge - 1, 2 * edge
	p := NewPlan2D(randSlice(rng, rows*slab), rows, slab)
	b.Run("slab/sub32", func(b *testing.B) { run(b, p, 32, planeCols) })
	b.Run("slab/sub1", func(b *testing.B) { run(b, p, 1, planeCols) })
}
