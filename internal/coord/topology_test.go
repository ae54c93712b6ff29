package coord

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestCrossTopologySketchAnswers is the cross-topology contract, counted:
// a sketch-tier distance assembled from shard pools — each shard's own
// FFT build over its own column slice, sketches compared under the
// shared estimator, which is what a cross-shard merge does — against the
// same distance from one unsharded pool, for every tile pair of a small
// call-volume table over 240 seeds. The contract is two numbers: every
// difference is within 1e-6 relative (what the gated benchmark allows
// its coordinator), and answers that are not bit-equal are rare — a
// lane differs between topologies only where the two builds' float64
// values, ~1e-13 apart, fall either side of a lane's rounding boundary
// (a bfloat16's, fft.NarrowLane), so the rounding that shrinks the pool
// also absorbs the FFT noise the topologies used to disagree by. Nearest tiles agree, or tie
// to the same 1e-6. It runs through each encoding of the kernels: the Go
// bodies (cpu.AVX2 cleared) and, where the CPU has it, AVX2.
func TestCrossTopologySketchAnswers(t *testing.T) {
	cpu.EachEncoding(t, testCrossTopologySketchAnswers)
}

func testCrossTopologySketchAnswers(t *testing.T) {
	const (
		seeds           = 240
		rows, shardCols = 16, 48
		shards          = workload.BucketsPerDay / shardCols
		tile, k, p      = 8, 16, 1.0
		tolerance       = 1e-6
	)
	opts := core.PoolOptions{MinLogRows: 3, MaxLogRows: 3, MinLogCols: 3, MaxLogCols: 3, Workers: 1}
	dist, err := core.NewSketchDist(p, k, core.EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	var answers, unequal, flips int
	var worst float64
	for seed := uint64(1); seed <= seeds; seed++ {
		tb, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: rows, Days: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := core.NewPool(tb, p, k, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		var one, cut [][]float64 // tile sketches: unsharded, and from the owning shard
		for s := 0; s < shards; s++ {
			sub := tb.Sub(table.Rect{C0: s * shardCols, Rows: rows, Cols: shardCols})
			shard, err := core.NewPool(sub, p, k, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r+tile <= rows; r += tile {
				for c := 0; c+tile <= shardCols; c += tile {
					local := table.Rect{R0: r, C0: c, Rows: tile, Cols: tile}
					global := local
					global.C0 += s * shardCols
					a, err := whole.Sketch(global, nil)
					if err != nil {
						t.Fatal(err)
					}
					b, err := shard.Sketch(local, nil)
					if err != nil {
						t.Fatal(err)
					}
					one, cut = append(one, a), append(cut, b)
				}
			}
		}
		for q := range one {
			near1, nearC := -1, -1
			var d1, dC float64
			for c := range one {
				if c == q {
					continue
				}
				w, g := dist(one[q], one[c]), dist(cut[q], cut[c])
				if c > q {
					answers++
					rel := math.Abs(g-w) / w
					worst = math.Max(worst, rel)
					if g != w {
						unequal++
					}
					if !(rel <= tolerance) {
						t.Errorf("seed %d tiles %d, %d: %v sharded, %v unsharded (%.2e relative)", seed, q, c, g, w, rel)
					}
				}
				if near1 < 0 || w < d1 {
					near1, d1 = c, w
				}
				if nearC < 0 || g < dC {
					nearC, dC = c, g
				}
			}
			if near1 != nearC {
				flips++
				if at := dist(one[q], one[nearC]); !(at-d1 <= tolerance*d1) {
					t.Errorf("seed %d tile %d: nearest %d sharded, %d unsharded, and no tie (%v vs %v)", seed, q, nearC, near1, at, d1)
				}
			}
		}
	}
	t.Logf("%d seeds: %d of %d sketch distances not bit-equal across topologies, worst %.2e relative; %d nearest tiles differ (ties)",
		seeds, unequal, answers, worst, flips)
	// Measured: 0 of 151 200. One in a thousand would mean the lanes stopped
	// absorbing the builds' noise.
	if unequal*1000 > answers {
		t.Errorf("%d of %d answers differ between topologies, want under one in a thousand", unequal, answers)
	}
}
