package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Cancellation and panic isolation for the worker-fan-out primitives.
//
// Every primitive in this file honors two contracts on top of the
// package's determinism contract:
//
//   - Cancellation: workers poll ctx.Err() between blocks (and ForCtx
//     between items), so a cancelled context stops the fan-out promptly.
//     A cancelled call returns ctx.Err(); because callers own disjoint
//     output slots, they simply discard the partially-filled state and
//     publish nothing. A call that completes without observing
//     cancellation is byte-identical to its context-free counterpart at
//     any worker count — the checks never alter the computation.
//
//   - Panic isolation: a panic inside fn is recovered on the worker
//     goroutine, wrapped in a *PanicError carrying the panic value and
//     the worker's stack, and returned as an error — instead of the
//     unrecoverable process crash a bare goroutine panic causes. When
//     several workers panic, the lowest block's panic is reported so the
//     outcome does not depend on scheduling. A panic always wins over
//     cancellation: a bug must never masquerade as a clean cancel.

// PanicError wraps a panic recovered from a worker goroutine.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking worker's stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// BlocksCtx is Blocks with cooperative cancellation and panic isolation:
// the context is checked before each block starts, a recovered worker
// panic is returned as a *PanicError, and a cancelled run returns
// ctx.Err(). A nil ctx means context.Background(). The block structure
// (NumBlocks) and the ownership discipline are exactly those of Blocks.
func BlocksCtx(ctx context.Context, workers, n int, fn func(lo, hi, block int)) error {
	if ctx == nil {
		// Recurse rather than assign: an assigned parameter that the
		// workers' closure captures moves to the heap on every call.
		return BlocksCtx(context.Background(), workers, n, fn)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		err := runBlock(ctx, 0, n, 0, fn)
		return resolveErrs(ctx, err)
	}
	size, rem := n/workers, n%workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	lo := 0
	for b := 0; b < workers; b++ {
		hi := lo + size
		if b < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi, b int) {
			defer wg.Done()
			errs[b] = runBlock(ctx, lo, hi, b, fn)
		}(lo, hi, b)
		lo = hi
	}
	wg.Wait()
	return resolveErrs(ctx, errs...)
}

// runBlock executes one block with a cancellation pre-check and panic
// recovery.
func runBlock(ctx context.Context, lo, hi, block int, fn func(lo, hi, block int)) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn(lo, hi, block)
	return nil
}

// resolveErrs reduces per-block outcomes deterministically: the first
// (lowest-block) panic wins, then cancellation, then success.
func resolveErrs(ctx context.Context, errs ...error) error {
	for _, err := range errs {
		if err == nil {
			continue // and allocate no errors.As target for it
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			return err
		}
	}
	return ctx.Err()
}

// ForCtx invokes fn(i) for every i in [0, n) like For, additionally
// checking the context before each item; it is meant for coarse-grained
// items (an FFT correlation pair, a plane-set build, a D² scan block)
// where a per-item check gives prompt cancellation at negligible cost.
// For fine-grained loops use BlocksCtx and check inside the block at a
// granularity of the caller's choosing.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return BlocksCtx(ctx, workers, n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
	})
}

// SumCtx is Sum with cancellation and panic isolation. The fixed
// sumBlock reduction structure is untouched, so a run that completes
// returns the exact bits Sum would at any worker count.
func SumCtx(ctx context.Context, workers, n int, fn func(i int) float64) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return 0, ctx.Err()
	}
	nb := (n + sumBlock - 1) / sumBlock
	partial := make([]float64, nb)
	err := BlocksCtx(ctx, workers, nb, func(blo, bhi, _ int) {
		for b := blo; b < bhi; b++ {
			if ctx.Err() != nil {
				return
			}
			lo, hi := b*sumBlock, (b+1)*sumBlock
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += fn(i)
			}
			partial[b] = s
		}
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, s := range partial {
		total += s
	}
	return total, nil
}

// CountCtx is Count with cancellation and panic isolation, polling the
// context between counting blocks of sumBlock items.
func CountCtx(ctx context.Context, workers, n int, pred func(i int) bool) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return 0, ctx.Err()
	}
	nb := (n + sumBlock - 1) / sumBlock
	partial := make([]int, nb)
	err := BlocksCtx(ctx, workers, nb, func(blo, bhi, _ int) {
		for b := blo; b < bhi; b++ {
			if ctx.Err() != nil {
				return
			}
			lo, hi := b*sumBlock, (b+1)*sumBlock
			if hi > n {
				hi = n
			}
			c := 0
			for i := lo; i < hi; i++ {
				if pred(i) {
					c++
				}
			}
			partial[b] = c
		}
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range partial {
		total += c
	}
	return total, nil
}
