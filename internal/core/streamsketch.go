package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/stable"
)

// HashSketcher is a Sketcher variant for the turnstile-stream setting of
// Indyk's FOCS 2000 paper (the paper's reference [12], whose techniques
// Section 3 implements): instead of materializing k random matrices of
// the full domain size — impossible when the domain is a router's entire
// (destination × time) key space — each random entry r[i][pos] is
// regenerated on demand from a hash of (i, pos). A sketch is then
// maintainable under a stream of (pos, delta) updates in O(k) per update
// with O(k) total memory, and two streams' sketches compare exactly like
// Sketcher's.
//
// The domain holds at most 2³² positions: the hash key keeps the row
// above bit 32 and the position below it, so a wider domain would give
// two (i, pos) pairs one entry.
//
// The generated entries are deterministic in (seed, p, i, pos), so two
// HashSketchers with equal parameters produce comparable sketches on
// different machines with no shared state.
type HashSketcher struct {
	estimate // k, B(p) and the estimator p picks
	p        float64
	dim      int // domain size: valid positions are [0, dim)
	seed     uint64
	entries  *stable.Dist
}

// NewHashSketcher builds a hash-based sketcher over a domain of dim
// positions, 1 ≤ dim ≤ 2³². Arguments mirror NewSketcher.
func NewHashSketcher(p float64, k, dim int, seed uint64) (*HashSketcher, error) {
	est, entries, err := newEstimate(p, k)
	if err != nil {
		return nil, err
	}
	if dim <= 0 || uint64(dim) > 1<<32 {
		return nil, fmt.Errorf("core: domain size %d outside [1, 2^32]", dim)
	}
	return &HashSketcher{estimate: est, p: p, dim: dim, seed: seed, entries: entries}, nil
}

// P returns the Lp exponent.
func (h *HashSketcher) P() float64 { return h.p }

// K returns the sketch size.
func (h *HashSketcher) K() int { return h.k }

// Dim returns the domain size.
func (h *HashSketcher) Dim() int { return h.dim }

// splitmix64 is the SplitMix64 finalizer, a fast high-quality mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Entry returns the random stable value r[i][pos], regenerated
// deterministically. Panics on out-of-range arguments (caller bugs).
func (h *HashSketcher) Entry(i, pos int) float64 {
	if i < 0 || i >= h.k {
		panic(fmt.Sprintf("core: entry row %d outside [0, %d)", i, h.k))
	}
	if pos < 0 || pos >= h.dim {
		panic(fmt.Sprintf("core: position %d outside [0, %d)", pos, h.dim))
	}
	key := splitmix64(h.seed ^ uint64(i)<<32 ^ uint64(pos))
	rng := rand.New(rand.NewPCG(key, splitmix64(key)))
	return h.entries.Sample(rng)
}

// Sketch computes the k dot products of a fully materialized vector with
// the hashed random matrices — mainly for verification; streaming callers
// use Stream/Update instead. vec must have length Dim().
func (h *HashSketcher) Sketch(vec, dst []float64) []float64 {
	if len(vec) != h.dim {
		panic(fmt.Sprintf("core: Sketch input length %d != dim %d", len(vec), h.dim))
	}
	if cap(dst) < h.k {
		dst = make([]float64, h.k)
	}
	dst = dst[:h.k]
	for i := range dst {
		var dot float64
		for pos, v := range vec {
			if v != 0 {
				dot += v * h.Entry(i, pos)
			}
		}
		dst[i] = dot
	}
	return dst
}

// Stream is a sketch maintained under a turnstile stream of point updates
// "cell pos changed by delta". It never stores the underlying vector.
type Stream struct {
	h       *HashSketcher
	sketch  []float64
	updates int64
}

// NewStream starts an empty stream (the all-zeros vector).
func (h *HashSketcher) NewStream() *Stream {
	return &Stream{h: h, sketch: make([]float64, h.k)}
}

// Update applies vec[pos] += delta to the sketched stream in O(k).
func (s *Stream) Update(pos int, delta float64) {
	if delta == 0 {
		return
	}
	s.updates++
	for i := range s.sketch {
		s.sketch[i] += delta * s.h.Entry(i, pos)
	}
}

// Sketch returns the current sketch vector (aliased, do not modify).
func (s *Stream) Sketch() []float64 { return s.sketch }

// Updates returns the number of applied updates.
func (s *Stream) Updates() int64 { return s.updates }

// DistanceTo estimates the Lp distance between this stream's vector and
// another stream sketched by the same HashSketcher.
func (s *Stream) DistanceTo(other *Stream) float64 {
	if s.h != other.h {
		panic("core: streams from different HashSketchers are not comparable")
	}
	return s.h.Distance(s.sketch, other.sketch)
}

// NormEstimate estimates ‖vec‖p of the stream's underlying vector.
func (s *Stream) NormEstimate() float64 {
	zero := make([]float64, s.h.k)
	return s.h.Distance(s.sketch, zero)
}
