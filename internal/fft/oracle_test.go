package fft

// The seed FFT path, kept as a test oracle: a textbook iterative radix-2
// transform (separate bit-reversal pass, strided twiddles, scaling
// passes) and the unplanned correlation built on it, which pads and
// forward-transforms both operands from scratch. It shares no code with
// the radix-4 kernel, so agreement between the two is evidence about
// both.

import (
	"math"
	"math/bits"
)

func oracleTwiddles(n int) []complex128 {
	tab := make([]complex128, n/2)
	for k := range tab {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tab[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return tab
}

// oracleTransform is the unscaled radix-2 transform of data in natural
// order, forward or inverse.
func oracleTransform(data []complex128, inverse bool) {
	n := len(data)
	if n == 1 {
		return
	}
	bitReverse(data)
	tab := oracleTwiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tab[k*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				i, j := start+k, start+k+half
				t := data[j] * w
				data[j] = data[i] - t
				data[i] += t
			}
		}
	}
}

// CMatrix is a dense row-major complex matrix, the oracle's 2D operand.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewCMatrix allocates a zeroed rows×cols complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *CMatrix) Row(r int) []complex128 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// oracleTransformColumns runs oracleTransform down every column of m,
// butterflies on whole rows, with the 1/Rows scaling when inverse.
func oracleTransformColumns(m *CMatrix, inverse bool) {
	n := m.Rows
	if n == 1 {
		return
	}
	bitReverseRows(m)
	tab := oracleTwiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wv := tab[k*step]
				if inverse {
					wv = complex(real(wv), -imag(wv))
				}
				rowI, rowJ := m.Row(start+k), m.Row(start+k+half)
				for x := range rowJ {
					t := rowJ[x] * wv
					rowJ[x] = rowI[x] - t
					rowI[x] += t
				}
			}
		}
	}
	if inverse {
		scale := complex(1/float64(n), 0)
		for i := range m.Data {
			m.Data[i] *= scale
		}
	}
}

// bitReverseRows applies the bit-reversal permutation to whole rows.
func bitReverseRows(m *CMatrix) {
	n := m.Rows
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			ri, rj := m.Row(i), m.Row(j)
			for c := range ri {
				ri[c], rj[c] = rj[c], ri[c]
			}
		}
	}
}

// oracleTransform2D is the natural-order 2D radix-2 transform, scaled
// when inverse.
func oracleTransform2D(m *CMatrix, inverse bool) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		oracleTransform(row, inverse)
		if inverse {
			scale := complex(1/float64(len(row)), 0)
			for i := range row {
				row[i] *= scale
			}
		}
	}
	oracleTransformColumns(m, inverse)
}

// CrossCorrelateValidUnplanned is the pre-Plan2D implementation: every
// call pads and forward-transforms both operands from scratch with two
// full complex FFTs, multiplies by the conjugate kernel spectrum and
// inverts.
func CrossCorrelateValidUnplanned(data []float64, n, m int, kernel []float64, ka, kb int) []float64 {
	checkDims(data, n, m, kernel, ka, kb)
	pr, pc := NextPow2(n), NextPow2(m)
	d := NewCMatrix(pr, pc)
	for r := 0; r < n; r++ {
		row := d.Row(r)
		for c, v := range data[r*m : (r+1)*m] {
			row[c] = complex(v, 0)
		}
	}
	k := NewCMatrix(pr, pc)
	for r := 0; r < ka; r++ {
		row := k.Row(r)
		for c, v := range kernel[r*kb : (r+1)*kb] {
			row[c] = complex(v, 0)
		}
	}
	oracleTransform2D(d, false)
	oracleTransform2D(k, false)
	for i := range d.Data {
		kc := k.Data[i]
		d.Data[i] *= complex(real(kc), -imag(kc)) // multiply by conjugate => correlation
	}
	oracleTransform2D(d, true)
	outRows, outCols := n-ka+1, m-kb+1
	out := make([]float64, outRows*outCols)
	for r := 0; r < outRows; r++ {
		row := d.Row(r)
		for c := 0; c < outCols; c++ {
			out[r*outCols+c] = real(row[c])
		}
	}
	return out
}
