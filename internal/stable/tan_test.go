package stable

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
)

// The AVX2 tangent must be math.Tan bit for bit: on the Cauchy draw
// itself (Fill at α = 1 against Sample, over 4·2^20 seeded draws), on
// arguments spread over the whole range it accepts, and at the edges of
// each of its branches.
func TestAVX2TanMatchesMathTan(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 (or no OS-enabled YMM state) on this CPU: only the Go body runs here")
	}
	same := func(t *testing.T, what string, x []float64) {
		t.Helper()
		got := append([]float64(nil), x...)
		tansAVX2(got)
		for i, v := range x {
			if want := math.Tan(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: tan(%v = %#016x) = %v (%#016x), math.Tan %v (%#016x)",
					what, v, math.Float64bits(v), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	t.Run("draws", func(t *testing.T) {
		const chunk, chunks = 1 << 16, 64
		d := mustNew(1)
		fill, sample := rand.New(rand.NewPCG(42, 1)), rand.New(rand.NewPCG(42, 1))
		out := make([]float64, chunk+3) // an odd length leaves a Go tail
		for c := 0; c < chunks; c++ {
			d.Fill(fill, out)
			for i, v := range out {
				if want := d.Sample(sample); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("chunk %d draw %d: Fill %v, Sample %v", c, i, v, want)
				}
			}
		}
	})
	t.Run("range", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(42, 2))
		x := make([]float64, 1<<20)
		for i := range x {
			// |x| log-uniform over [2^−1074, 2^29), every sign.
			x[i] = math.Ldexp(1+rng.Float64(), rng.IntN(1104)-1075)
			if rng.IntN(2) == 0 {
				x[i] = -x[i]
			}
		}
		same(t, "range", x)
	})
	t.Run("edges", func(t *testing.T) {
		var x []float64
		// ulps walks 16 ulps either side of v, both signs.
		ulps := func(v float64) {
			for i := 0; i < 16; i++ {
				v = math.Nextafter(v, 0)
			}
			for i := 0; i < 33; i++ {
				x = append(x, v, -v)
				v = math.Nextafter(v, math.Inf(1))
			}
		}
		ulps(math.Pi / 4)                    // |x|·4/π crosses 1: j odd, made even
		ulps(math.Pi / 2)                    // crosses 2: j&2, and u = 0's −π/2
		ulps(3 * math.Pi / 4)                // crosses 3
		ulps(math.Sqrt(1e-14))               // z² crosses 1e-14
		for i, v := 0, 0x1p29; i < 32; i++ { // the range's end, below 2^29
			v = math.Nextafter(v, 0)
			x = append(x, v, -v)
		}
		// u just below 1, and u = 0.
		x = append(x, halfPi*(2*(1-0x1p-53)-1), halfPi*(2*0-1), halfPi*(2*0.5-1))
		x = append(x, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0042))
		same(t, "edges", x)
	})
}
