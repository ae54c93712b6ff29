package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/faultinject"
)

func TestAllPositionsCtxMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	tb := randTable(rng, 24, 24)
	for _, workers := range []int{1, 3} {
		sk, err := NewSketcher(1, 6, 4, 4, 5, EstimatorAuto)
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
	sk, err := NewSketcher(1, 8, 4, 4, 5, EstimatorAuto)
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
