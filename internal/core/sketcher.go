package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/parallel"
	"repro/internal/stable"
)

// Sketcher produces Lp sketches for tiles of one fixed size. It owns k
// random rows×cols matrices with i.i.d. symmetric p-stable entries,
// generated deterministically from a seed so that sketches from different
// Sketcher instances with equal (p, k, dims, seed) are comparable.
//
// Concurrency: all methods except SetWorkers are safe for concurrent use
// once construction returns — the matrices are immutable, Distance
// (promoted from estimate) borrows pooled scratch, and the heavy
// entry points (Sketch, AllPositions) fan out internally over the k
// independent random matrices, writing each matrix's result to a disjoint
// pre-allocated slot. That disjoint-write discipline makes every result
// byte-identical at any worker count (the determinism tests assert this),
// so the Workers knob is purely a throughput control.
type Sketcher struct {
	estimate   // k, B(p) and the estimator p picks
	p          float64
	rows, cols int
	seed       uint64
	workers    int         // 0 = GOMAXPROCS; see SetWorkers
	mats       [][]float64 // k matrices, row-major rows*cols each
}

// NewSketcher builds a Sketcher for p ∈ (0,2] with k sketch entries for
// tiles of rows×cols cells.
func NewSketcher(p float64, k, rows, cols int, seed uint64) (*Sketcher, error) {
	est, dist, err := checkSketcher(p, k, rows, cols)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, math.Float64bits(p)))
	mats := make([][]float64, k)
	for i := range mats {
		mats[i] = make([]float64, rows*cols)
		dist.Fill(rng, mats[i])
	}
	return &Sketcher{
		estimate: est,
		p:        p, rows: rows, cols: cols, seed: seed,
		mats: mats,
	}, nil
}

// checkSketcher validates a sketcher's parameters without drawing its
// matrices, returning what NewSketcher builds from them: the error for
// every input NewSketcher refuses, which NewBandedPool returns too.
func checkSketcher(p float64, k, rows, cols int) (estimate, *stable.Dist, error) {
	est, dist, err := newEstimate(p, k)
	if err != nil {
		return estimate{}, nil, err
	}
	if rows <= 0 || cols <= 0 {
		return estimate{}, nil, fmt.Errorf("core: non-positive tile dims %dx%d", rows, cols)
	}
	return est, dist, nil
}

// P returns the Lp exponent.
func (s *Sketcher) P() float64 { return s.p }

// K returns the number of sketch entries.
func (s *Sketcher) K() int { return s.k }

// Rows returns the tile height the sketcher was built for.
func (s *Sketcher) Rows() int { return s.rows }

// Cols returns the tile width the sketcher was built for.
func (s *Sketcher) Cols() int { return s.cols }

// Scale returns B(p), the median-of-absolute-value of the underlying
// stable distribution used to unbias the median estimator.
func (s *Sketcher) Scale() float64 { return s.scale }

// Seed returns the seed the random matrices were generated from; two
// Sketchers with equal (p, k, dims, seed) are interchangeable.
func (s *Sketcher) Seed() uint64 { return s.seed }

// SetWorkers bounds the goroutines Sketch and AllPositions fan out over
// the k random matrices. 0 (the default) means runtime.GOMAXPROCS(0);
// 1 forces serial execution. Results are byte-identical at any setting —
// each matrix's output lands in its own pre-allocated slot, so there is
// no reduction-order dependence. SetWorkers returns s for chaining; call
// it before sharing the Sketcher across goroutines (it is the one
// mutating method).
func (s *Sketcher) SetWorkers(n int) *Sketcher {
	s.workers = n
	return s
}

// Workers returns the effective worker count used by Sketch and
// AllPositions (the SetWorkers value with 0 resolved to GOMAXPROCS).
func (s *Sketcher) Workers() int { return parallel.Resolve(s.workers) }

// sketchParallelMinFlops is the amount of multiply-add work below which
// Sketch stays on the calling goroutine: fanning out costs a few µs of
// goroutine start-up, which only pays for itself on larger tiles×k. The
// threshold affects scheduling only, never results (entry i is the same
// dot product either way).
const sketchParallelMinFlops = 1 << 15

// Sketch computes the k dot products of the linearized tile with the
// random matrices, fanning out over the matrices when the work exceeds
// sketchParallelMinFlops (see SetWorkers). vec must have length
// rows*cols. dst is reused when it has capacity k; the sketch is
// returned. Entry i depends only on matrix i and vec, so the output is
// identical at every worker count.
func (s *Sketcher) Sketch(vec []float64, dst []float64) []float64 {
	if len(vec) != s.rows*s.cols {
		panic(fmt.Sprintf("core: Sketch input length %d != %d*%d", len(vec), s.rows, s.cols))
	}
	if cap(dst) < s.k {
		dst = make([]float64, s.k)
	}
	dst = dst[:s.k]
	workers := s.workers
	if s.k*len(vec) < sketchParallelMinFlops {
		workers = 1
	}
	parallel.Blocks(workers, s.k, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			m := s.mats[i]
			var dot float64
			for j, v := range vec {
				dot += v * m[j]
			}
			dst[i] = dot
		}
	})
	return dst
}
