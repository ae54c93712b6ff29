package cluster

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lpnorm"
)

// blobs generates nPer points around each center with the given standard
// deviation, returning the points and their true cluster labels.
func blobs(rng *rand.Rand, centers [][]float64, nPer int, sigma float64) (points [][]float64, truth []int) {
	for c, center := range centers {
		for i := 0; i < nPer; i++ {
			p := make([]float64, len(center))
			for j, v := range center {
				p[j] = v + rng.NormFloat64()*sigma
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

var l2 = lpnorm.MustP(2).Dist

// sameClustering reports whether two labelings induce the same partition
// (up to label permutation), for small k.
func sameClustering(a, b []int, k int) bool {
	mapping := make([]int, k)
	for i := range mapping {
		mapping[i] = -1
	}
	for i := range a {
		if mapping[a[i]] == -1 {
			mapping[a[i]] = b[i]
		} else if mapping[a[i]] != b[i] {
			return false
		}
	}
	return true
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	centers := [][]float64{{0, 0}, {100, 0}, {0, 100}}
	points, truth := blobs(rng, centers, 40, 1.0)
	res, err := KMeans(points, l2, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge on trivially separable data")
	}
	if !sameClustering(truth, res.Assign, 3) {
		t.Error("failed to recover well-separated blobs")
	}
	if res.Comparisons <= 0 {
		t.Error("Comparisons not counted")
	}
	if res.Spread <= 0 {
		t.Error("Spread should be positive for noisy blobs")
	}
}

func TestKMeansPlusPlusRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	centers := [][]float64{{0, 0}, {50, 50}, {-50, 50}, {0, -70}}
	points, truth := blobs(rng, centers, 30, 0.5)
	res, err := KMeans(points, l2, Config{K: 4, Seed: 3, Init: InitPlusPlus})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClustering(truth, res.Assign, 4) {
		t.Error("k-means++ failed to recover blobs")
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	points, _ := blobs(rng, [][]float64{{5, 5}}, 20, 1)
	res, err := KMeans(points, l2, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Assign {
		if c != 0 {
			t.Fatal("all points must land in cluster 0")
		}
	}
	// Centroid should be near (5,5).
	if math.Abs(res.Centroids[0][0]-5) > 1 || math.Abs(res.Centroids[0][1]-5) > 1 {
		t.Errorf("centroid %v far from (5,5)", res.Centroids[0])
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	points := [][]float64{{0}, {10}, {20}}
	res, err := KMeans(points, l2, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range res.Assign {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 singleton clusters, got assignment %v", res.Assign)
	}
	if res.Spread > 1e-9 {
		t.Errorf("spread %v should be ~0 with singleton clusters", res.Spread)
	}
}

func TestKMeansErrors(t *testing.T) {
	pts := [][]float64{{1}, {2}}
	if _, err := KMeans(nil, l2, Config{K: 1}); err == nil {
		t.Error("no points: expected error")
	}
	if _, err := KMeans(pts, l2, Config{K: 0}); err == nil {
		t.Error("K=0: expected error")
	}
	if _, err := KMeans(pts, l2, Config{K: 3}); err == nil {
		t.Error("K>n: expected error")
	}
	if _, err := KMeans(pts, nil, Config{K: 1}); err == nil {
		t.Error("nil dist: expected error")
	}
	if _, err := KMeans([][]float64{{1}, {2, 3}}, l2, Config{K: 1}); err == nil {
		t.Error("ragged: expected error")
	}
	if _, err := KMeans([][]float64{{}}, l2, Config{K: 1}); err == nil {
		t.Error("zero-dim: expected error")
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	points, _ := blobs(rng, [][]float64{{0, 0}, {10, 10}}, 25, 2)
	a, err := KMeans(points, l2, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, l2, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Comparisons != b.Comparisons {
		t.Error("same seed produced different comparison counts")
	}
}

func TestKMeansWithL1Distance(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	centers := [][]float64{{0, 0, 0}, {30, 30, 30}}
	points, truth := blobs(rng, centers, 30, 1)
	res, err := KMeans(points, lpnorm.MustP(1).Dist, Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClustering(truth, res.Assign, 2) {
		t.Error("L1 k-means failed on separable blobs")
	}
}

func TestKMeansWithFractionalP(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	centers := [][]float64{{0, 0}, {1000, 1000}}
	points, truth := blobs(rng, centers, 20, 5)
	res, err := KMeans(points, lpnorm.MustP(0.5).Dist, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClustering(truth, res.Assign, 2) {
		t.Error("L0.5 k-means failed on separable blobs")
	}
}

func TestKMeansMaxIterRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	points, _ := blobs(rng, [][]float64{{0, 0}, {1, 1}, {2, 2}}, 40, 3)
	res, err := KMeans(points, l2, Config{K: 3, Seed: 1, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", res.Iterations)
	}
}

func TestSpread(t *testing.T) {
	points := [][]float64{{0}, {2}, {10}, {12}}
	assign := []int{0, 0, 1, 1}
	centroids := [][]float64{{1}, {11}}
	// each point is 1 away from its centroid
	if got := Spread(points, assign, centroids, l2); math.Abs(got-4) > 1e-12 {
		t.Errorf("Spread = %v, want 4", got)
	}
}

func TestCentroidsOf(t *testing.T) {
	points := [][]float64{{0, 0}, {2, 2}, {10, 10}}
	assign := []int{0, 0, 1}
	cents := CentroidsOf(points, assign, 3)
	if cents[0][0] != 1 || cents[0][1] != 1 {
		t.Errorf("centroid 0 = %v, want [1 1]", cents[0])
	}
	if cents[1][0] != 10 {
		t.Errorf("centroid 1 = %v, want [10 10]", cents[1])
	}
	// Empty cluster 2 stays at the origin.
	if cents[2][0] != 0 || cents[2][1] != 0 {
		t.Errorf("empty centroid = %v, want [0 0]", cents[2])
	}
	if CentroidsOf(nil, nil, 2) != nil {
		t.Error("CentroidsOf(nil) should be nil")
	}
}

func TestEmptyClusterRepair(t *testing.T) {
	// Three far groups but K=3 with an adversarial seed can momentarily
	// produce empty clusters; the run must still end with every cluster
	// nonempty on separable data.
	rng := rand.New(rand.NewPCG(8, 8))
	centers := [][]float64{{0, 0}, {100, 100}, {200, 0}}
	points, _ := blobs(rng, centers, 15, 0.5)
	for seed := uint64(0); seed < 10; seed++ {
		res, err := KMeans(points, l2, Config{K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, 3)
		for _, c := range res.Assign {
			sizes[c]++
		}
		for c, s := range sizes {
			if s == 0 {
				t.Errorf("seed %d: cluster %d empty: %v", seed, c, sizes)
			}
		}
	}
}
