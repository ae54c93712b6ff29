package evalmetrics

import (
	"math"
	"testing"
)

func TestCumulative(t *testing.T) {
	got, err := Cumulative([]float64{9, 11}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("Cumulative = %v, want 1 (errors cancel)", got)
	}
	got, _ = Cumulative([]float64{5}, []float64{10})
	if got != 0.5 {
		t.Errorf("Cumulative = %v, want 0.5", got)
	}
}

func TestCumulativeErrors(t *testing.T) {
	if _, err := Cumulative(nil, nil); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := Cumulative([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatch: expected error")
	}
	if _, err := Cumulative([]float64{1}, []float64{0}); err == nil {
		t.Error("zero exact sum: expected error")
	}
}

func TestAverage(t *testing.T) {
	// errors do NOT cancel in the average measure
	got, err := Average([]float64{9, 11}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Average = %v, want 0.9", got)
	}
	perfect, _ := Average([]float64{3, 4}, []float64{3, 4})
	if perfect != 1 {
		t.Errorf("perfect Average = %v, want 1", perfect)
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average([]float64{1}, []float64{0}); err == nil {
		t.Error("zero exact: expected error")
	}
	if _, err := Average(nil, nil); err == nil {
		t.Error("empty: expected error")
	}
}

func TestPairwise(t *testing.T) {
	triples := []Triple{
		{ExactXY: 1, ExactXZ: 2, EstXY: 1.1, EstXZ: 1.9}, // agree (Y closer)
		{ExactXY: 3, ExactXZ: 2, EstXY: 2.5, EstXZ: 2.6}, // disagree
		{ExactXY: 5, ExactXZ: 9, EstXY: 4, EstXZ: 10},    // agree
		{ExactXY: 9, ExactXZ: 5, EstXY: 10, EstXZ: 4},    // agree (Z closer)
	}
	got, err := Pairwise(triples)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Errorf("Pairwise = %v, want 0.75", got)
	}
	if _, err := Pairwise(nil); err == nil {
		t.Error("empty: expected error")
	}
}

func TestConfusion(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	b := []int{0, 1, 1, 1, 2}
	m, err := Confusion(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1, 1, 0},
		{0, 2, 0},
		{0, 0, 1},
	}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Fatalf("confusion[%d][%d] = %v, want %v", i, j, m[i][j], want[i][j])
			}
		}
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := Confusion(nil, nil, 2); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := Confusion([]int{0}, []int{0, 1}, 2); err == nil {
		t.Error("mismatch: expected error")
	}
	if _, err := Confusion([]int{0}, []int{0}, 0); err == nil {
		t.Error("k=0: expected error")
	}
	if _, err := Confusion([]int{2}, []int{0}, 2); err == nil {
		t.Error("label out of range: expected error")
	}
	if _, err := Confusion([]int{0}, []int{-1}, 2); err == nil {
		t.Error("negative label: expected error")
	}
}

func TestAgreementPermutedLabels(t *testing.T) {
	// Identical partitions with permuted labels must agree 100% after
	// matching but poorly without.
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{1, 1, 2, 2, 0, 0}
	matched, err := Agreement(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("matched Agreement = %v, want 1", matched)
	}
	m, err := Confusion(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if raw := m[0][0] + m[1][1] + m[2][2]; raw != 0 {
		t.Errorf("unmatched diagonal = %v, want 0", raw)
	}
}

func TestAgreementPartial(t *testing.T) {
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 1, 1} // one object moved
	got, err := Agreement(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.0/6.0) > 1e-12 {
		t.Errorf("Agreement = %v, want 5/6", got)
	}
}

func TestQuality(t *testing.T) {
	q, err := Quality(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("equal spreads: quality %v, want 1", q)
	}
	q, _ = Quality(110, 100) // sketch spread smaller → better → >1
	if q != 1.1 {
		t.Errorf("quality %v, want 1.1", q)
	}
	if _, err := Quality(-1, 1); err == nil {
		t.Error("negative spread: expected error")
	}
	if q, _ := Quality(0, 0); q != 1 {
		t.Errorf("0/0 quality %v, want 1", q)
	}
	if q, _ := Quality(5, 0); !math.IsInf(q, 1) {
		t.Errorf("x/0 quality %v, want +Inf", q)
	}
}
