package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
)

func TestBlocksCtxNilAndBackground(t *testing.T) {
	out := make([]int, 100)
	if err := BlocksCtx(nil, 4, len(out), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	}); err != nil {
		t.Fatalf("BlocksCtx(nil ctx) = %v", err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestBlocksCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := BlocksCtx(ctx, 4, 100, func(lo, hi, _ int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran under a pre-cancelled context")
	}
}

func TestBlocksCtxCancelMidRun(t *testing.T) {
	// The countdown context cancels on a fixed Err() poll, so the
	// cancellation point is deterministic regardless of scheduling.
	for _, workers := range []int{1, 4} {
		ctx := faultinject.CancelAfterChecks(context.Background(), 3)
		var blocksRun atomic.Int64
		err := BlocksCtx(ctx, workers, 64, func(lo, hi, _ int) {
			blocksRun.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := blocksRun.Load(); n >= 64 {
			t.Fatalf("workers=%d: all %d blocks ran despite cancellation", workers, n)
		}
	}
}

func TestBlocksCtxPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := BlocksCtx(context.Background(), workers, 16, func(lo, hi, _ int) {
			if lo <= 7 && 7 < hi {
				panic("boom-7")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom-7" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !strings.Contains(pe.Error(), "boom-7") {
			t.Fatalf("workers=%d: Error() = %q misses panic value", workers, pe.Error())
		}
	}
}

func TestBlocksCtxLowestBlockPanicWins(t *testing.T) {
	// All blocks panic; the reported value must come from block 0 so the
	// outcome never depends on scheduling.
	err := BlocksCtx(context.Background(), 8, 8, func(lo, hi, block int) {
		panic(block)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != 0 {
		t.Fatalf("panic value = %v, want block 0's", pe.Value)
	}
}

func TestBlocksCtxPanicBeatsCancellation(t *testing.T) {
	// Three Err() polls: the entry pre-check passes, then of the two
	// blocks' pre-checks one passes (and panics) and one observes the
	// cancellation — so the per-block outcomes are exactly one panic and
	// one cancel, and the panic must be the one reported.
	ctx := faultinject.CancelAfterChecks(context.Background(), 3)
	err := BlocksCtx(ctx, 2, 2, func(lo, hi, _ int) {
		panic("bug")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v: a worker panic must not masquerade as a cancel", err)
	}
}

// The context-free primitives re-raise a worker panic on the caller as a
// *PanicError: Blocks, and Sum and Count, which run their Ctx variants.
func TestBlocksRepanicsWorkerPanic(t *testing.T) {
	runs := map[string]func(){
		"Blocks": func() {
			Blocks(4, 16, func(lo, hi, _ int) {
				if lo == 0 {
					panic("worker bug")
				}
			})
		},
		"Sum": func() {
			Sum(4, 10_000, func(i int) float64 {
				if i == 0 {
					panic("worker bug")
				}
				return 1
			})
		},
		"Count": func() {
			Count(4, 10_000, func(i int) bool {
				if i == 0 {
					panic("worker bug")
				}
				return true
			})
		},
	}
	for name, run := range runs {
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("%s: recovered %v (%T), want *PanicError", name, r, r)
				}
				if pe.Value != "worker bug" {
					t.Fatalf("%s: panic value = %v", name, pe.Value)
				}
			}()
			run()
			t.Fatalf("%s returned despite worker panic", name)
		}()
	}
}

func TestForCtxCancelSkipsItems(t *testing.T) {
	ctx := faultinject.CancelAfterChecks(context.Background(), 5)
	var ran atomic.Int64
	err := ForCtx(ctx, 2, 1000, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestCtxVariantsMatchPlainResults(t *testing.T) {
	// A run that completes under a (never-cancelled) context must be
	// byte-identical to the context-free primitive at any worker count.
	n := 10_000
	fn := func(i int) float64 { return float64(i%97) * 1.25e-3 }
	pred := func(i int) bool { return i%7 == 0 }
	wantSum := Sum(1, n, fn)
	wantCount := Count(1, n, pred)
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := SumCtx(context.Background(), workers, n, fn)
		if err != nil {
			t.Fatalf("SumCtx(workers=%d) = %v", workers, err)
		}
		if got != wantSum {
			t.Fatalf("SumCtx(workers=%d) = %v, Sum = %v", workers, got, wantSum)
		}
		c, err := CountCtx(context.Background(), workers, n, pred)
		if err != nil {
			t.Fatalf("CountCtx(workers=%d) = %v", workers, err)
		}
		if c != wantCount {
			t.Fatalf("CountCtx(workers=%d) = %d, Count = %d", workers, c, wantCount)
		}
	}
}

func TestSumCtxCancelled(t *testing.T) {
	ctx := faultinject.CancelAfterChecks(context.Background(), 2)
	_, err := SumCtx(ctx, 2, 100_000, func(i int) float64 { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCountCtxCancelled(t *testing.T) {
	ctx := faultinject.CancelAfterChecks(context.Background(), 2)
	_, err := CountCtx(ctx, 2, 100_000, func(i int) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestSumCtxPanic(t *testing.T) {
	boom := faultinject.PanicNth(500, "sum bug")
	_, err := SumCtx(context.Background(), 4, 10_000, func(i int) float64 {
		boom()
		return 1
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
