package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fft"
	"repro/internal/table"
)

func TestAllPositionsCtxMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	tb := randTable(rng, 24, 24)
	for _, workers := range []int{1, 3} {
		sk, err := NewSketcher(1, 6, 4, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		sk.SetWorkers(workers)
		want := sk.AllPositions(tb)
		got, err := sk.AllPositionsCtx(context.Background(), tb)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.bands[0].data) != len(want.bands[0].data) {
			t.Fatalf("workers=%d: payload length %d vs %d", workers, len(got.bands[0].data), len(want.bands[0].data))
		}
		for i := range got.bands[0].data {
			if got.bands[0].data[i] != want.bands[0].data[i] {
				t.Fatalf("workers=%d: payload differs at %d", workers, i)
			}
		}
	}
}

func TestAllPositionsCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	tb := randTable(rng, 16, 16)
	sk, err := NewSketcher(1, 8, 4, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps, err := sk.AllPositionsCtx(ctx, tb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ps != nil {
		t.Fatal("cancelled run published a plane set")
	}
}

func TestNewPoolPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	tb := randTable(rng, 16, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool, err := NewPool(tb, 1, 4, 7, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pool != nil {
		t.Fatal("cancelled build published a pool")
	}
}

func TestNewPoolCancelMidBuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	tb := randTable(rng, 32, 32)
	// A deterministic ^C: the countdown context flips to cancelled on a
	// fixed Err() poll, partway through the job fan-out.
	ctx := faultinject.CancelAfterChecks(context.Background(), 6)
	pool, err := NewPool(tb, 1, 4, 7, PoolOptions{
		MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3,
		Workers: 2, Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pool != nil {
		t.Fatal("cancelled build published a pool")
	}
}

func TestNewPoolWithContextMatchesWithout(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	tb := randTable(rng, 32, 32)
	opts := PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 3}
	want, err := NewPool(tb, 1, 6, 21, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsCtx := opts
	optsCtx.Context = context.Background()
	optsCtx.Workers = 3
	got, err := NewPool(tb, 1, 6, 21, optsCtx)
	if err != nil {
		t.Fatal(err)
	}
	for key, sets := range want.entries {
		gsets, ok := got.entries[key]
		if !ok {
			t.Fatalf("size %v missing", key)
		}
		for s := range sets {
			for i := range sets[s].bands[0].data {
				if sets[s].bands[0].data[i] != gsets[s].bands[0].data[i] {
					t.Fatalf("size %v set %d differs at %d", key, s, i)
				}
			}
		}
	}
}

// A pool build — NewPool with or without PanelCols, and Pool.Append —
// polls its context before every round trip, not once per panel of k/2
// of them: whichever poll the cancel lands on, every round trip that ran
// was let through by a clean poll of its own (so at most the one in
// flight on each worker finishes after the cancel), the error is the
// context's and nothing is published.
func TestPanelBuildCancelStopsWithinARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	const rows, cols, k = 16, 96, 16
	full := randTable(rng, rows, cols)
	for _, panel := range []int{32, 0} {
		for _, workers := range []int{1, 2} {
			opts := PoolOptions{
				MinLogRows: 2, MaxLogRows: 2, MinLogCols: 2, MaxLogCols: 2,
				PanelCols: panel, Workers: workers,
			}
			builds := map[string]func(ctx context.Context) (*Pool, error){
				"NewPool": func(ctx context.Context) (*Pool, error) {
					o := opts
					o.Context = ctx
					return NewPool(full, 1, k, 7, o)
				},
			}
			if panel > 0 {
				base, err := NewPool(full.Sub(table.Rect{Rows: rows, Cols: panel}), 1, k, 7, opts)
				if err != nil {
					t.Fatal(err)
				}
				builds["Append"] = func(ctx context.Context) (*Pool, error) { return base.Append(ctx, full) }
			}
			for name, build := range builds {
				midBuild := false
				for n := int64(1); ; n++ {
					before := fft.CorrelationCount()
					pool, err := build(faultinject.CancelAfterChecks(context.Background(), n))
					trips := fft.CorrelationCount() - before
					if err == nil {
						break // the whole build takes fewer than n polls
					}
					if !errors.Is(err, context.Canceled) || pool != nil {
						t.Fatalf("%s PanelCols=%d workers=%d cancel at poll %d: pool %v, err %v",
							name, panel, workers, n, pool, err)
					}
					if trips > n-1 {
						t.Fatalf("%s PanelCols=%d workers=%d: %d round trips ran on the %d clean polls before the cancel",
							name, panel, workers, trips, n-1)
					}
					midBuild = midBuild || trips > 0
				}
				if !midBuild {
					t.Errorf("%s PanelCols=%d workers=%d: no cancel landed between round trips", name, panel, workers)
				}
			}
		}
	}
}
