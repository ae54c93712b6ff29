package quantile

// Fuzz targets cross-checking the order statistics against a full sort —
// the obviously-correct reference. The selection kernel sits on the hot
// path of every sketched distance (AbsMedianDiff), so a selection bug
// would silently skew every estimate; the fuzzer hunts for
// pivot/partition edge cases (duplicates, pre-sorted runs, ±Inf,
// signed zeros) that hand-written tables miss.

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// floatsFromBytes decodes data into a bounded slice of non-NaN floats.
// NaNs are excluded because order statistics are undefined under a
// partial order — the package contract is NaN-free input.
func floatsFromBytes(data []byte) []float64 {
	const maxLen = 1024
	out := make([]float64, 0, maxLen)
	for len(data) >= 8 && len(out) < maxLen {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		if math.IsNaN(v) {
			continue
		}
		out = append(out, v)
	}
	return out
}

func eq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func FuzzSelectAgainstSort(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(bytesOf(3, 1, 2), uint16(1))
	f.Add(bytesOf(5, 5, 5, 5), uint16(2))
	f.Add(bytesOf(math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		vals := floatsFromBytes(data)
		if len(vals) == 0 {
			t.Skip()
		}
		k := int(kRaw) % len(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)

		if got := Select(vals, k, NewScratch(len(vals))); !eq(got, sorted[k]) {
			t.Errorf("Select(%v, %d) = %v, sorted reference %v", vals, k, got, sorted[k])
		}
	})
}

func FuzzMedianAndQuantileAgainstSort(f *testing.F) {
	f.Add(bytesOf(1, 2, 3, 4), uint16(500))
	f.Add(bytesOf(2, 1), uint16(0))
	f.Add(bytesOf(-1, 0, 1, 2, 3), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, qRaw uint16) {
		vals := floatsFromBytes(data)
		if len(vals) == 0 {
			t.Skip()
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		n := len(vals)

		wantMedian := sorted[n/2]
		if n%2 == 0 {
			wantMedian = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if got := Median(vals, NewScratch(n)); !eq(got, wantMedian) {
			t.Errorf("Median(%v) = %v, sorted reference %v", vals, got, wantMedian)
		}

		q := float64(qRaw%1001) / 1000 // q ∈ [0, 1] on a fixed lattice
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		wantQ := sorted[lo]
		if frac != 0 {
			// Same interpolation arithmetic as the implementation, on the
			// same order statistics, so results must match exactly.
			wantQ = sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
		}
		if got := Quantile(vals, q, NewScratch(n)); !eq(got, wantQ) {
			t.Errorf("Quantile(%v, %v) = %v, sorted reference %v", vals, q, got, wantQ)
		}
	})
}

// absDiffPairs splits vals into two equal halves a, b and returns them with
// the sorted |a[i]−b[i]|, dropping pairs whose difference is NaN (Inf − Inf).
func absDiffPairs(vals []float64) (a, b, sorted []float64) {
	h := len(vals) / 2
	for i := 0; i < h; i++ {
		if d := math.Abs(vals[i] - vals[h+i]); !math.IsNaN(d) {
			a, b, sorted = append(a, vals[i]), append(b, vals[h+i]), append(sorted, d)
		}
	}
	sort.Float64s(sorted)
	return a, b, sorted
}

// sortedMedian is the definition AbsMedianDiff must reproduce bit for bit.
func sortedMedian(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// absDiffSeeds are pair sets (first half a, second half b) the hand-written
// tables miss: odd and even counts, duplicates, all-equal differences,
// zeros, and differences that overflow to +Inf.
var absDiffSeeds = [][]byte{
	bytesOf(1, 2),
	bytesOf(1, 2, 3, 4, 0, 3),
	bytesOf(1, 2, 3, 4, 4, 0, 3, 9),
	bytesOf(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
	bytesOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
	bytesOf(0, math.Copysign(0, -1), 7, 0, 0, 7),
	bytesOf(math.MaxFloat64, 1, -math.MaxFloat64, -math.MaxFloat64, 1, math.MaxFloat64),
	bytesOf(math.Inf(1), 1, 2, 3, 0, 0, 0, math.Inf(-1)),
}

func FuzzAbsMedianDiffAgainstSort(f *testing.F) {
	for _, seed := range absDiffSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, sorted := absDiffPairs(floatsFromBytes(data))
		if len(a) == 0 {
			t.Skip()
		}
		want := sortedMedian(sorted)
		if got := AbsMedianDiff(a, b, NewScratch(len(a))); !sameBits(got, want) {
			t.Errorf("AbsMedianDiff(%v, %v) = %v, sorted reference %v", a, b, got, want)
		}
	})
}

// FuzzAbsMedianDiffBelowAgainstSort checks both halves of the bounded
// median — FirstBelow on one row, then AbsMedianDiff on a row it does not
// reject — against sort-then-compare: the row is rejected exactly when
// the order statistic of rank (n−1)/2 is ≥ bound (so the median is too),
// and a selected median is the full one bit for bit.
func FuzzAbsMedianDiffBelowAgainstSort(f *testing.F) {
	for i, seed := range absDiffSeeds {
		f.Add(seed, uint16(i))
		f.Add(seed, uint16(0xFFFF))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint16) {
		a, b, sorted := absDiffPairs(floatsFromBytes(data))
		n := len(a)
		if n == 0 {
			t.Skip()
		}
		// Bounds: 0, +Inf, the median itself, and values present in the input
		// (where < against ≤ decides).
		bounds := []float64{0, math.Inf(1), sortedMedian(sorted), sorted[int(pick)%n], sorted[(n-1)/2]}
		for _, bound := range bounds {
			ok := FirstBelow(a, b, bound) == 0
			if wantOK := sorted[(n-1)/2] < bound; ok != wantOK {
				t.Fatalf("FirstBelow(%v, %v, %v) selected=%v, sorted reference %v", a, b, bound, ok, wantOK)
			}
			if !ok {
				if m := sortedMedian(sorted); m < bound {
					t.Fatalf("median %v reported not below %v", m, bound)
				}
				continue
			}
			if got, want := AbsMedianDiff(a, b, NewScratch(n)), sortedMedian(sorted); !sameBits(got, want) {
				t.Errorf("AbsMedianDiff(%v, %v) below %v = %v, sorted reference %v", a, b, bound, got, want)
			}
		}
	})
}

// bytesOf encodes floats for seed-corpus entries.
func bytesOf(vals ...float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
