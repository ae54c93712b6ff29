package cluster

// Parallel clustering must be bit-for-bit deterministic: assignment
// writes are per-point slots, centroid updates stay in serial point
// order, and RNG draws never happen inside a fan-out. These tests pin
// identical output for workers ∈ {serial, 2, GOMAXPROCS} with a fixed
// seed, for both KMeans and KMedoids and both init methods.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
)

func detPoints(n, dim int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xde7))
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, dim)
		for j := range points[i] {
			points[i][j] = rng.NormFloat64() + float64(i%5)*3
		}
	}
	return points
}

// l1 is a pure distance function, safe for concurrent use by design.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func sameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
		t.Errorf("%s: iterations/converged (%d,%v) != (%d,%v)",
			label, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
	}
	if got.Comparisons != ref.Comparisons {
		t.Errorf("%s: comparisons %d != %d", label, got.Comparisons, ref.Comparisons)
	}
	for i := range ref.Assign {
		if got.Assign[i] != ref.Assign[i] {
			t.Errorf("%s: assignment of point %d is %d, want %d", label, i, got.Assign[i], ref.Assign[i])
			break
		}
	}
	if math.Float64bits(got.Spread) != math.Float64bits(ref.Spread) {
		t.Errorf("%s: spread %v not bit-identical to %v", label, got.Spread, ref.Spread)
	}
	for c := range ref.Centroids {
		for j := range ref.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(ref.Centroids[c][j]) {
				t.Errorf("%s: centroid %d[%d] not bit-identical", label, c, j)
				return
			}
		}
	}
}

func TestKMeansDeterministicAcrossWorkers(t *testing.T) {
	points := detPoints(300, 16, 1)
	for _, init := range []InitMethod{InitRandom, InitPlusPlus} {
		cfg := Config{K: 7, Seed: 9, Init: init, Workers: 0}
		ref, err := KMeans(points, l1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), -1} {
			cfg.Workers = w
			got, err := KMeans(points, l1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmtLabel("KMeans", init, w), ref, got)
		}
	}
}

// TestKMeansOverSketchDistanceAcrossWorkers: Sketcher.Distance borrows
// pooled selection scratch, so parallel assignment may call it from every
// worker at once; the run must match the serial one bit for bit (and,
// under -race, show no data race on the scratch).
func TestKMeansOverSketchDistanceAcrossWorkers(t *testing.T) {
	sk, err := core.NewSketcher(1, 32, 4, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	points := detPoints(300, 16, 3)
	for i, x := range points {
		points[i] = sk.Sketch(x, nil)
	}
	cfg := Config{K: 7, Seed: 9, Init: InitPlusPlus, Workers: 1}
	ref, err := KMeans(points, sk.Distance, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = -1
	got, err := KMeans(points, sk.Distance, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "KMeans over Sketcher.Distance, workers -1", ref, got)
}

func TestKMedoidsDeterministicAcrossWorkers(t *testing.T) {
	points := detPoints(200, 12, 2)
	for _, init := range []InitMethod{InitRandom, InitPlusPlus} {
		cfg := Config{K: 5, Seed: 4, Init: init, Workers: 0}
		ref, err := KMedoids(points, l1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), -1} {
			cfg.Workers = w
			got, err := KMedoids(points, l1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmtLabel("KMedoids", init, w), ref, got)
		}
	}
}

func fmtLabel(algo string, init InitMethod, workers int) string {
	name := "random"
	if init == InitPlusPlus {
		name = "plusplus"
	}
	return fmt.Sprintf("%s/%s/workers=%d", algo, name, workers)
}
