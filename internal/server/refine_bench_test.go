package server_test

import (
	"context"
	"testing"

	"repro/internal/prune"
	"repro/internal/table"
	"repro/internal/workload"
)

// refineTables are the tables `make bench-refine` scans, each 256 × 1024
// at p = 1, k = 64, 8 clusters: the gated benchmark's fixture shape
// (call volumes at 32 × 32 tiles), the same table at two smaller tile
// sizes, and three generators with less and less for a row sum to see —
// traffic (block profiles), six regions (255 tiles, 55 of them in the
// query's own band, which nothing separates) and noise (the floor: no
// bound eliminates anything, the engine pays its marginal pass and then
// scans with a running cutoff).
var refineTables = []struct {
	name string
	tile int
	tb   func() (*table.Table, error)
}{
	{"fixture", 32, callVolume},
	{"callvolume16", 16, callVolume},
	{"callvolume8", 8, callVolume},
	{"traffic", 32, func() (*table.Table, error) {
		tb, err := workload.Traffic(workload.TrafficConfig{Hosts: 256, Days: 11, Seed: 1})
		if err != nil {
			return nil, err
		}
		return tb.Sub(table.Rect{Rows: 256, Cols: 1024}), nil
	}},
	{"sixregions", 32, func() (*table.Table, error) {
		d, err := workload.NewSixRegions(workload.SixRegionsConfig{Rows: 256, Cols: 1024, Seed: 1})
		if err != nil {
			return nil, err
		}
		return d.Table, nil
	}},
	{"random", 32, func() (*table.Table, error) { return workload.Random(256, 1024, 10, 1), nil }},
}

func callVolume() (*table.Table, error) {
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{
		Stations: 256, Days: (1024 + workload.BucketsPerDay - 1) / workload.BucketsPerDay, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	return tb.Sub(table.Rect{Rows: 256, Cols: 1024}), nil
}

// BenchmarkRefineNearest times the refine tier below the handler: direct
// Snapshot calls, every grid tile as the query round-robin, one thread.
// auto is the exact engine with statistics (mode=prune is the same call),
// exact the entry point mode=exact and the oracle tests call, assign the
// exact engine over the medoids, and sketch the sketch tier's nearest on
// the same tables, so the exact-against-sketch crossover is a table.
// Beside ns/op the engine modes report what a query consumed — table
// cells read and marginal coordinates compared — from one untimed pass
// over every tile, so the counts do not depend on b.N.
func BenchmarkRefineNearest(b *testing.B) {
	ctx := context.Background()
	for _, tc := range refineTables {
		b.Run(tc.name, func(b *testing.B) {
			tb, err := tc.tb()
			if err != nil {
				b.Fatal(err)
			}
			sn := buildSnap(b, tb, 1, 64, tc.tile, 8, 1)
			queries := make([]table.Rect, sn.NumTiles())
			grid, _ := table.NewGrid(tb.Rows(), tb.Cols(), tc.tile, tc.tile)
			for i := range queries {
				queries[i] = grid.Rect(i)
			}
			for _, mode := range []struct {
				name string
				call func(q table.Rect) (prune.Stats, error)
			}{
				{"auto", func(q table.Rect) (prune.Stats, error) {
					_, _, st, err := sn.ProgressiveNearest(ctx, q, 1, nil, 0)
					return st, err
				}},
				{"exact", func(q table.Rect) (prune.Stats, error) {
					_, _, err := sn.ExactNearest(ctx, q, 1)
					return prune.Stats{}, err
				}},
				{"assign", func(q table.Rect) (prune.Stats, error) {
					_, _, _, st, err := sn.ProgressiveAssign(ctx, q, 1, nil, 0)
					return st, err
				}},
				{"sketch", func(q table.Rect) (prune.Stats, error) {
					_, _, err := sn.SketchNearest(ctx, q)
					return prune.Stats{}, err
				}},
			} {
				b.Run(mode.name, func(b *testing.B) {
					var cells, marginal int64
					for _, q := range queries {
						st, err := mode.call(q)
						if err != nil {
							b.Fatal(err)
						}
						marginal += st.BoundCoordinates
						cells += st.CellsEvaluated - st.BoundCoordinates
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := mode.call(queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
					}
					if cells > 0 { // exact and sketch return no statistics
						n := float64(len(queries))
						b.ReportMetric(float64(cells)/n, "cells/op")
						b.ReportMetric(float64(marginal)/n, "marginal/op")
					}
				})
			}
		})
	}
}
