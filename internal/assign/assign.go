// Package assign solves the linear assignment problem with the Hungarian
// (Kuhn–Munkres) algorithm in O(n³).
//
// It is used to align cluster labels when comparing two clusterings: the
// confusion-matrix agreement of Definition 10 is only meaningful after the
// clusters of one clustering have been matched to the clusters of the
// other, and the optimal matching maximizes the diagonal mass of the
// confusion matrix.
package assign

import (
	"fmt"
	"math"
)

// MinCost solves min-cost perfect assignment on an n×n cost matrix given
// as rows; result[i] = j means row i is assigned to column j. The matrix
// must be square and free of NaNs.
func MinCost(cost [][]float64) ([]int, error) {
	n := len(cost)
	if n == 0 {
		return nil, fmt.Errorf("assign: empty cost matrix")
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, fmt.Errorf("assign: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("assign: NaN cost at (%d,%d)", i, j)
			}
		}
	}
	// Shortest-augmenting-path formulation of the Hungarian algorithm
	// (Jonker–Volgenant style) with dual potentials u, v. Index 0 is a
	// virtual root, so arrays are 1-based.
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j]: row assigned to column j (0 = none)
	way := make([]int, n+1) // way[j]: previous column on the augmenting path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	result := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] != 0 {
			result[p[j]-1] = j - 1
		}
	}
	return result, nil
}

// MaxProfit solves max-profit assignment by negating the profit matrix.
func MaxProfit(profit [][]float64) ([]int, error) {
	n := len(profit)
	cost := make([][]float64, n)
	for i, row := range profit {
		if len(row) != n {
			return nil, fmt.Errorf("assign: row %d has %d entries, want %d", i, len(row), n)
		}
		cost[i] = make([]float64, n)
		for j, v := range row {
			cost[i][j] = -v
		}
	}
	return MinCost(cost)
}
