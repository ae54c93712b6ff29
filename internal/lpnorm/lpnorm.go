// Package lpnorm computes exact Lp norms and distances for vectors and
// matrices, p ∈ (0, 2], as defined in Section 3.1 of the paper:
//
//	‖x − y‖p = (Σᵢ |xᵢ − yᵢ|^p)^(1/p)
//
// Matrices are treated as linearized vectors (the Lp norms are entrywise,
// so any consistent linearization gives the same value). These routines
// are the paper's "exact computation" baseline: linear time in the object
// size, which is precisely the cost the sketches avoid.
//
// The package also provides the Hamming distance (the p → 0 limit the
// paper discusses when explaining why very small p clusters poorly) and
// raw p-th-power distances (which skip the final root; monotone in the
// true distance and therefore interchangeable for comparisons).
package lpnorm

import (
	"fmt"
	"math"
)

// P describes an Lp norm with its exponent validated at construction.
type P struct {
	p float64
}

// NewP returns the Lp norm descriptor. p must be in (0, 2]; the sketching
// theory (and the meaningfulness of the metric comparisons in the paper)
// holds only on that range.
func NewP(p float64) (P, error) {
	if !(p > 0) || p > 2 || math.IsNaN(p) {
		return P{}, fmt.Errorf("lpnorm: p %v outside (0, 2]", p)
	}
	return P{p: p}, nil
}

// MustP is NewP for constant exponents; it panics on error.
func MustP(p float64) P {
	v, err := NewP(p)
	if err != nil {
		panic(err)
	}
	return v
}

// Value returns the exponent.
func (lp P) Value() float64 { return lp.p }

// Norm returns ‖x‖p.
func (lp P) Norm(x []float64) float64 {
	return math.Pow(lp.PowSum(x), 1/lp.p)
}

// PowSum returns Σ|xᵢ|^p, the p-th power of the norm. Comparisons of
// PowSum values order identically to comparisons of norms, so distance-
// based algorithms can skip the root.
func (lp P) PowSum(x []float64) float64 {
	switch lp.p {
	case 2:
		var s float64
		for _, v := range x {
			s += v * v
		}
		return s
	case 1:
		var s float64
		for _, v := range x {
			s += math.Abs(v)
		}
		return s
	default:
		var s float64
		for _, v := range x {
			if v != 0 {
				s += math.Pow(math.Abs(v), lp.p)
			}
		}
		return s
	}
}

// Dist returns ‖x − y‖p. x and y must have equal length.
func (lp P) Dist(x, y []float64) float64 {
	return math.Pow(lp.DistPowSum(x, y), 1/lp.p)
}

// DistPowSum returns Σ|xᵢ − yᵢ|^p without the final root.
func (lp P) DistPowSum(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("lpnorm: length mismatch %d vs %d", len(x), len(y)))
	}
	switch lp.p {
	case 2:
		var s float64
		for i, v := range x {
			d := v - y[i]
			s += d * d
		}
		return s
	case 1:
		var s float64
		for i, v := range x {
			s += math.Abs(v - y[i])
		}
		return s
	default:
		var s float64
		for i, v := range x {
			d := v - y[i]
			if d != 0 {
				s += math.Pow(math.Abs(d), lp.p)
			}
		}
		return s
	}
}

// Hamming returns the number of positions where x and y differ — the
// p → 0 limit of Σ|xᵢ−yᵢ|^p. Panics on length mismatch.
func Hamming(x, y []float64) int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("lpnorm: length mismatch %d vs %d", len(x), len(y)))
	}
	n := 0
	for i, v := range x {
		if v != y[i] {
			n++
		}
	}
	return n
}

// Marginals appends the marginal summary of a rows-row tile to dst, rows+2
// values: its row sums in order, then its signed total S = Σ cell, then
// A = Σ|cell|. Each row sum is accumulated left to right in float64, S left
// to right over all cells in row order, and A as the sum of the rows'
// absolute sums. Two tiles' summaries are what MarginalLowerBound and
// TotalLowerBound compare.
func Marginals(dst []float64, rows int, row func(r int) []float64) []float64 {
	var total, abs float64
	for r := 0; r < rows; r++ {
		var s, a float64
		for _, v := range row(r) {
			s += v
			total += v
			a += math.Abs(v)
		}
		dst = append(dst, s)
		abs += a
	}
	return append(dst, total, abs)
}

const (
	// unit is the unit roundoff of float64.
	unit = 1.0 / (1 << 53)
	// minBound is the smallest bound MarginalLowerBound vouches for.
	minBound = 0x1p-900
)

// MarginalLowerBound returns a number that is never above the distance
// power sum of two rows × cols tiles x and y — Σ_r DistPowSum(x_r, y_r),
// accumulated row by row in float64 as the scans do — computed from the
// row sums and A of their Marginals, in O(rows). 0 certifies nothing, and
// is what it returns when it can certify nothing.
//
// The inequality. Let d_c = x_rc − y_rc along one row and Δ_r = Σ_c d_c,
// the difference of the two row sums. Then
//
//	Σ_c |d_c|^p ≥ |Δ_r|^p · cols^(−max(p−1, 0))
//
// at p = 1 by the triangle inequality; for p > 1 by the power mean
// (Σ|d_c|^p ≥ cols^(1−p)·(Σ|d_c|)^p) and then the triangle inequality; for
// p < 1 by the subadditivity of t ↦ t^p (Σ|d_c|^p ≥ (Σ|d_c|)^p) and then
// the triangle inequality. Summed over the rows it bounds the power sum.
//
// The rounding. Write u = 2⁻⁵³ and take rows·cols ≤ 2⁵⁰. What the scans
// compare is the computed power sum S̃, and what is known of Δ_r is the
// computed difference Δ̃_r of two computed row sums, so both sides move:
//
//   - A computed row sum is within (cols−1)·u·(1+u)^cols·Σ_c|x_rc| of the
//     true one, the subtraction adds at most u·(|x̃ sum| + |ỹ sum|), and
//     the computed A is at least (1 − (rows+cols)·u) of the true A ≥
//     Σ_c|x_rc|; so |Δ̃_r − Δ_r| ≤ e := 2·cols·u·(A_x + A_y) with a factor
//     near 2 to spare, which also covers the roundings of e itself. (A sum
//     of two float64s is exact while its magnitude is below 2⁻¹⁰²¹, so
//     where e underflows there was no error to cover.) Each row term is
//     therefore taken from t_r = max(|Δ̃_r| − e, 0) ≤ |Δ_r|·(1+u): t ↦ t^p
//     is monotone on t ≥ 0, so shrinking its argument is safe at every p.
//   - A cell's term reaches S̃ through one subtraction, one power and at
//     most rows + cols additions of non-negative numbers; a row term
//     reaches the bound through one subtraction, one power, at most rows
//     additions and the product with cols^(1−p) (at p = 2 a division by
//     cols, one rounding either way). Squaring is within u and
//     math.Pow is taken to be within 2¹⁰·u (its Exp(y·Log x) core is within
//     ~800·u at the ends of the range), so multiplying the total by
//     slack = 1 − (4·(rows + cols) + 2¹³)·u pays for every relative error
//     on both sides.
//   - Underflow is absolute, not relative: a power below 2⁻¹⁰²² can lose
//     2⁻¹⁰⁷⁴ a term on the exact side. A bound below 2⁻⁹⁰⁰ is returned as
//     0; above it the whole loss is below the bound's last bit.
//
// Overflow makes A infinite before it makes a row sum infinite (|partial
// row sum| ≤ partial Σ|cell|, rounding is monotone), so an overflowed row
// has e = +Inf and contributes 0; a total that is still NaN or +Inf is
// returned as 0.
func (lp P) MarginalLowerBound(mx, my []float64, cols int) float64 {
	rows := summaryRows(mx, my)
	e := 2 * float64(cols) * unit * (mx[rows+1] + my[rows+1])
	my = my[:rows]
	var s float64
	switch lp.p {
	case 1:
		for r, v := range mx[:rows] {
			if t := math.Abs(v-my[r]) - e; t > 0 {
				s += t
			}
		}
	case 2:
		for r, v := range mx[:rows] {
			if t := math.Abs(v-my[r]) - e; t > 0 {
				s += t * t
			}
		}
	default:
		for r, v := range mx[:rows] {
			if t := math.Abs(v-my[r]) - e; t > 0 {
				s += math.Pow(t, lp.p)
			}
		}
	}
	switch {
	case lp.p == 2:
		s /= float64(cols) // cols^(1−p), without a math.Pow per candidate
	case lp.p > 1:
		s *= math.Pow(float64(cols), 1-lp.p)
	}
	s *= 1 - (4*float64(rows+cols)+(1<<13))*unit
	if !(s >= minBound && s <= math.MaxFloat64) {
		return 0
	}
	return s
}

// TotalLowerBound is MarginalLowerBound at the coarsest grain: x and y
// read as one row of rows·cols cells, whose summary is [S, S, A]. It
// compares one number where MarginalLowerBound compares rows, and is never
// above it over the reals
// (|Σ_r Δ_r|^p·(rows·cols)^(−max(p−1, 0)) ≤ Σ_r |Δ_r|^p·cols^(−max(p−1, 0))
// by the same three steps across rows), so a candidate it rules out the
// row bound rules out too.
//
// The rounding argument is the same one. S is one left-to-right sum of
// rows·cols cells, which is what it assumes of a row sum; the computed A
// and the scans' power sum take at most rows + cols ≤ 1 + rows·cols
// roundings a cell, inside what the one-row slack pays for. No new
// constant is needed. An overflowed S meets e = +Inf or makes the term
// +Inf or NaN, and certifies nothing.
func (lp P) TotalLowerBound(mx, my []float64, cols int) float64 {
	rows := summaryRows(mx, my)
	x := [3]float64{mx[rows], mx[rows], mx[rows+1]}
	y := [3]float64{my[rows], my[rows], my[rows+1]}
	return lp.MarginalLowerBound(x[:], y[:], rows*cols)
}

// summaryRows returns the row count of two Marginals summaries of one
// shape.
func summaryRows(mx, my []float64) int {
	rows := len(mx) - 2
	if rows < 0 || len(my) != len(mx) {
		panic("lpnorm: marginals of different shapes")
	}
	return rows
}
