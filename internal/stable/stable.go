// Package stable implements sampling from symmetric α-stable distributions
// for α ∈ (0, 2], the probabilistic core of the paper's Lp sketches.
//
// A distribution X is α-stable when a1·X1 + ... + an·Xn is distributed as
// ‖(a1,...,an)‖α · X for independent copies Xi of X. The sketch estimators
// rely on exactly this property: the dot product of a data vector with a
// vector of stable samples is a stable variable scaled by the Lp norm of
// the data (Section 3.2 of the paper).
//
// Three cases have closed forms — Gaussian (α = 2), Cauchy (α = 1) and
// Lévy (α = 1/2, totally skewed) — and the general symmetric case is
// sampled with the Chambers–Mallows–Stuck (CMS) transform from one uniform
// and one exponential variate.
//
// Scale conventions: Sample draws from the distribution whose
// characteristic function is exp(-|t|^α), except at α = 2 where it draws a
// standard normal N(0,1) rather than the CMS limit N(0,2). This makes the
// p = 2 sketch directly compatible with the Euclidean special-case
// estimator (E[(r·v)²] = ‖v‖₂² for r with i.i.d. N(0,1) entries). The
// scaling factor B(p) returned by MedianAbs always refers to the
// convention Sample actually uses, so estimators stay consistent.
package stable

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/cpu"
)

const halfPi = math.Pi / 2

// Dist is a symmetric α-stable distribution ready for sampling.
// The zero value is invalid; construct with New.
type Dist struct {
	alpha float64
	// invAlpha and expo precompute the CMS exponents for the general case.
	invAlpha float64
	expo     float64 // (1-α)/α
}

// New returns the symmetric α-stable distribution with index alpha.
// alpha must lie in (0, 2]; otherwise an error is returned, since the
// stability property (and hence the Lp sketch guarantee) fails outside
// that range.
func New(alpha float64) (*Dist, error) {
	if !(alpha > 0) || alpha > 2 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("stable: alpha %v outside (0, 2]", alpha)
	}
	return &Dist{
		alpha:    alpha,
		invAlpha: 1 / alpha,
		expo:     (1 - alpha) / alpha,
	}, nil
}

// Sample draws one variate using rng.
func (d *Dist) Sample(rng *rand.Rand) float64 {
	switch d.alpha {
	case 2:
		return rng.NormFloat64()
	case 1:
		// Symmetric 1-stable is the standard Cauchy: tan(θ), θ ~ U(-π/2, π/2).
		return math.Tan(halfPi * (2*rng.Float64() - 1))
	default:
		return d.cms(rng)
	}
}

// cms implements the Chambers–Mallows–Stuck transform for the symmetric
// case β = 0, α ≠ 1:
//
//	X = sin(αθ)/cos(θ)^(1/α) · (cos((1-α)θ)/W)^((1-α)/α)
//
// with θ ~ U(-π/2, π/2) and W ~ Exp(1).
func (d *Dist) cms(rng *rand.Rand) float64 {
	theta := halfPi * (2*rng.Float64() - 1)
	w := rng.ExpFloat64()
	// Guard against the measure-zero endpoints that would divide by zero.
	for w == 0 {
		w = rng.ExpFloat64()
	}
	cosTheta := math.Cos(theta)
	a := math.Sin(d.alpha*theta) / math.Pow(cosTheta, d.invAlpha)
	b := math.Pow(math.Cos((1-d.alpha)*theta)/w, d.expo)
	return a * b
}

// Fill fills out with independent samples: the values, in order, that
// as many calls of Sample would return. At α = 1 it draws every angle
// first and then takes the tangents in one pass (tans), four at a time
// where the CPU has AVX2.
func (d *Dist) Fill(rng *rand.Rand, out []float64) {
	if d.alpha == 1 {
		for i := range out {
			out[i] = halfPi * (2*rng.Float64() - 1)
		}
		tans(out)
		return
	}
	for i := range out {
		out[i] = d.Sample(rng)
	}
}

// tans replaces every x[i] with math.Tan(x[i]), bit for bit; |x[i]| must
// stay below 2^29 (math's reduction threshold), as a Cauchy angle's π/2
// does. Its Go body is math.Tan itself; its AVX2 encoding (tan_amd64.s,
// chosen once by cpu.AVX2) runs math.Tan's operations in math.Tan's order
// on four lanes, without fused multiply-adds.
func tans(x []float64) {
	if cpu.AVX2 {
		tansAVX2(x)
		return
	}
	tansGo(x)
}

// tansGo is the Go encoding of tans.
func tansGo(x []float64) {
	for i, v := range x {
		x[i] = math.Tan(v)
	}
}

// medianAbsExact lists the closed-form values of median(|X|):
//   - α = 1 (Cauchy): |X| has CDF (2/π)·arctan(x), median = tan(π/4) = 1.
//   - α = 2 (N(0,1) by our convention): Φ⁻¹(0.75) ≈ 0.6744897501960817.
var medianAbsExact = map[float64]float64{
	1: 1,
	2: 0.6744897501960817,
}

var (
	medianAbsMu    sync.Mutex
	medianAbsCache = map[float64]float64{}
)

// mcSamples is the Monte-Carlo sample count for MedianAbs. 400k samples put
// the relative error of the median estimate well under 0.5% for every
// α ∈ (0, 2], which is far below the sketch approximation error ε.
const mcSamples = 400_000

// MedianAbs returns B(α) = median(|X|) for X drawn as Sample does.
// This is the scaling factor of Theorem 2: the median of absolute sketch
// differences estimates B(α)·‖x−y‖α, so dividing by B(α) recovers the
// norm. Exact values are returned for α ∈ {1, 2}; other indices use the
// analytic quantile (Fourier inversion of the characteristic function,
// see dist.go) when available, or a deterministic-seed Monte-Carlo run
// for very small α. Results are cached per α.
func MedianAbs(alpha float64) float64 {
	if v, ok := medianAbsExact[alpha]; ok {
		return v
	}
	medianAbsMu.Lock()
	defer medianAbsMu.Unlock()
	if v, ok := medianAbsCache[alpha]; ok {
		return v
	}
	if v, err := MedianAbsAnalytic(alpha); err == nil {
		medianAbsCache[alpha] = v
		return v
	}
	d, err := New(alpha)
	if err != nil {
		panic(err)
	}
	// Fixed seeds keyed on alpha keep the constant reproducible across runs.
	rng := rand.New(rand.NewPCG(0x5eed_ab1e, math.Float64bits(alpha)))
	abs := make([]float64, mcSamples)
	for i := range abs {
		abs[i] = math.Abs(d.Sample(rng))
	}
	v := medianInPlace(abs)
	medianAbsCache[alpha] = v
	return v
}

// medianInPlace is a local quickselect median to avoid an import cycle with
// internal/quantile (which has no dependencies, but keeping stable
// dependency-free makes it reusable in isolation).
func medianInPlace(data []float64) float64 {
	n := len(data)
	k := n / 2
	lo, hi := 0, n-1
	for lo < hi {
		pivot := data[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for data[i] < pivot {
				i++
			}
			for data[j] > pivot {
				j--
			}
			if i <= j {
				data[i], data[j] = data[j], data[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	upper := data[k]
	if n%2 == 1 {
		return upper
	}
	lower := math.Inf(-1)
	for _, v := range data[:k] {
		if v > lower {
			lower = v
		}
	}
	return (lower + upper) / 2
}
