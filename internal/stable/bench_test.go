package stable

import (
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
)

// BenchmarkCauchyDraws makes one fixture pool's Cauchy draws — four sets
// of k = 64 matrices of 32×32, 262 144 draws — as NewSketcher does, one
// Fill a matrix from one PCG stream, on each encoding of the tangent (go,
// and avx2 where the CPU has it); ns a draw beside ns/op.
func BenchmarkCauchyDraws(b *testing.B) {
	const matrices, entries = 4 * 64, 32 * 32
	d := mustNew(1)
	out := make([]float64, entries)
	cpu.EachEncoding(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewPCG(uint64(i), 1))
			for m := 0; m < matrices; m++ {
				d.Fill(rng, out)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(matrices*entries), "ns/draw")
	})
}
