package assign

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestMinCostTiny(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	// Optimal: (0,1)=1, (1,0)=2, (2,2)=2 → 5.
	got, err := MinCost(cost)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", got, want)
		}
	}
}

func TestMinCostIdentity(t *testing.T) {
	// Diagonal zeros, everything else positive: identity is optimal.
	n := 5
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 10
			}
		}
	}
	got, err := MinCost(cost)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range got {
		if i != j {
			t.Fatalf("assignment %v not identity", got)
		}
	}
}

func TestMinCostSingle(t *testing.T) {
	got, err := MinCost([][]float64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("got %v", got)
	}
}

func TestMinCostErrors(t *testing.T) {
	if _, err := MinCost(nil); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := MinCost([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged: expected error")
	}
	if _, err := MinCost([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN: expected error")
	}
}

func TestMinCostNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	got, err := MinCost(cost)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("assignment = %v, want identity", got)
	}
}

// bruteForceMin finds the optimal assignment by enumerating permutations.
func bruteForceMin(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			var total float64
			for i, j := range perm {
				total += cost[i][j]
			}
			if total < best {
				best = total
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	return best
}

func TestMinCostMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) - 20
			}
		}
		got, err := MinCost(cost)
		if err != nil {
			t.Fatal(err)
		}
		// Validate it is a permutation.
		seen := make([]bool, n)
		var total float64
		for i, j := range got {
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("trial %d: invalid assignment %v", trial, got)
			}
			seen[j] = true
			total += cost[i][j]
		}
		if want := bruteForceMin(cost); math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian cost %v, brute force %v", trial, total, want)
		}
	}
}

func TestMaxProfit(t *testing.T) {
	profit := [][]float64{
		{1, 9},
		{9, 1},
	}
	got, err := MaxProfit(profit)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment = %v, want [1 0]", got)
	}
	if p := profit[0][got[0]] + profit[1][got[1]]; p != 18 {
		t.Errorf("profit = %v, want 18", p)
	}
}

func TestMaxProfitRagged(t *testing.T) {
	if _, err := MaxProfit([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error")
	}
}

// The trap a greedy matching falls into: taking the largest entry
// (0,0)=10 forces (1,1)=0, a profit of 10, where the Hungarian optimum
// is 9+9=18.
func TestHungarianBeatsOrMatchesGreedy(t *testing.T) {
	trap := [][]float64{
		{10, 9},
		{9, 0},
	}
	got, err := MaxProfit(trap)
	if err != nil {
		t.Fatal(err)
	}
	if p := trap[0][got[0]] + trap[1][got[1]]; p != 18 {
		t.Errorf("trap profit = %v, want 18", p)
	}
}
