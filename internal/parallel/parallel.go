// Package parallel provides the shared worker-fan-out primitives behind
// every concurrent hot path in this repository: sketch construction fans
// out over the k independent random matrices, pool construction over the
// dyadic plane sets, clustering over the point→centroid assignment, and
// the evaluation metrics over experiment pairs.
//
// # Determinism contract
//
// Every primitive here is designed so that the result of a computation is
// byte-identical at any worker count, which the determinism test suites
// assert for the hot paths:
//
//   - Blocks/For split [0, n) into contiguous index ranges and hand each
//     range to at most one invocation at a time. Callers write only to
//     slots owned by their own indices (disjoint pre-allocated slices), so
//     no result ever depends on goroutine scheduling.
//   - Sum reduces in fixed-size blocks whose partial sums are combined in
//     block order, so the floating-point result is independent of the
//     worker count (FP addition is not associative; a naive per-worker
//     reduction would drift with the split).
//
// Work items must not depend on each other; the primitives make no
// ordering promise between blocks, only that all complete before return.
//
// # Fault tolerance
//
// The Ctx variants (BlocksCtx, ForCtx, SumCtx, CountCtx) add cooperative
// cancellation — workers poll ctx.Err() between blocks — and panic
// isolation: a worker panic is recovered, wrapped with its stack in a
// *PanicError, and returned as an error instead of crashing the process.
// See ctx.go for the exact contracts. Resolve needs no context: it is a
// pure knob normalization.
package parallel

import (
	"context"
	"runtime"
)

// Resolve normalizes a Workers knob: any n ≥ 1 is returned unchanged and
// n ≤ 0 selects runtime.GOMAXPROCS(0), the convention every Workers field
// and -workers flag in this repository follows.
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Blocks partitions [0, n) into at most `workers` contiguous near-equal
// blocks and invokes fn(lo, hi, block) once per block, concurrently when
// workers > 1. Block 0 covers the lowest indices. workers ≤ 0 resolves to
// GOMAXPROCS; with workers == 1 (or n small enough for a single block) fn
// runs on the calling goroutine with no synchronization overhead.
//
// fn must confine its writes to state owned by indices in [lo, hi) (or to
// its own block slot); under that discipline the overall result is
// identical at any worker count.
//
// A panic inside fn is recovered on the worker goroutine and re-raised
// here as a *PanicError (carrying the original value and the worker's
// stack), so callers can recover it like any single-goroutine panic
// instead of the process dying to an unrecoverable goroutine panic. Use
// BlocksCtx to receive worker panics as errors and to support
// cancellation.
func Blocks(workers, n int, fn func(lo, hi, block int)) {
	if err := BlocksCtx(context.Background(), workers, n, fn); err != nil {
		// Background is never cancelled, so the only possible error is a
		// recovered worker panic.
		panic(err)
	}
}

// NumBlocks reports how many blocks Blocks will create for the given
// workers and n — the length callers should pre-allocate for per-block
// result slots.
func NumBlocks(workers, n int) int {
	if n <= 0 {
		return 0
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	return workers
}

// For invokes fn(i) for every i in [0, n), fanning out over at most
// `workers` goroutines with contiguous index blocks. The same ownership
// discipline as Blocks applies: fn must write only to slots of index i.
func For(workers, n int, fn func(i int)) {
	Blocks(workers, n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// sumBlock is the fixed reduction granularity of Sum. It is a constant —
// never derived from the worker count — because the block structure is
// what makes the floating-point result worker-count-independent.
const sumBlock = 2048

// Sum returns Σ fn(i) for i in [0, n). Partial sums are computed over
// fixed-size index blocks (ascending order within a block) and combined
// in block order, so the result is bit-identical at any worker count.
// Note the result may differ in the last ulps from a plain serial loop —
// the guarantee is invariance across workers, not across algorithms.
func Sum(workers, n int, fn func(i int) float64) float64 {
	return must(SumCtx(context.Background(), workers, n, fn))
}

// Count returns the number of i in [0, n) for which pred(i) is true,
// fanning out over workers. Integer addition is associative, so the
// result is trivially worker-count-independent.
func Count(workers, n int, pred func(i int) bool) int {
	return must(CountCtx(context.Background(), workers, n, pred))
}

// must unwraps a Ctx variant run on context.Background(), which never
// cancels: its only error is a recovered worker panic, re-raised on the
// caller as a *PanicError the way Blocks does.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
