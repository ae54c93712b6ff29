// Package series provides Lp sketches over one-dimensional time series —
// the predecessor machinery of Indyk, Koudas & Muthukrishnan (VLDB 2000,
// reference [13]) that the paper generalizes to tables. A pool of dyadic
// window sketches answers "how far apart are these two length-L windows?"
// for arbitrary L in O(k), using the 1D analogue of the paper's compound
// sketches: an arbitrary window is tiled by two overlapping dyadic
// windows from two independent sketch sets.
package series

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/table"
)

// compoundSets is the number of independent sketch sets per dyadic
// length; tiling an interval takes two overlapping dyadic intervals.
const compoundSets = 2

// IntervalPool holds precomputed sketches for every position of every
// dyadic window length 2^minLog .. 2^maxLog over a series.
type IntervalPool struct {
	n              int
	p              float64
	k              int
	minLog, maxLog int
	sets           map[int][compoundSets]*core.PlaneSet // keyed by log2(length)
}

// NewIntervalPool builds the pool over x for Lp sketches of size k.
// Window lengths 2^minLog..2^maxLog are precomputed; Sketch then covers
// any window length in [2^minLog, 2^(maxLog+1)].
func NewIntervalPool(x []float64, p float64, k int, seed uint64, minLog, maxLog int) (*IntervalPool, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("series: empty series")
	}
	if minLog < 0 || minLog > maxLog {
		return nil, fmt.Errorf("series: invalid dyadic range [%d, %d]", minLog, maxLog)
	}
	if 1<<maxLog > len(x) {
		return nil, fmt.Errorf("series: max dyadic window %d exceeds series length %d",
			1<<maxLog, len(x))
	}
	// A series is a 1×n table; all the 2D machinery applies with one row.
	tb, err := table.FromData(1, len(x), x)
	if err != nil {
		return nil, err
	}
	pl := &IntervalPool{
		n: len(x), p: p, k: k, minLog: minLog, maxLog: maxLog,
		sets: make(map[int][compoundSets]*core.PlaneSet),
	}
	// All window lengths correlate against the same series, so every
	// plane set shares one frequency-domain plan (one forward FFT of the
	// padded series, total).
	tp := core.NewTablePlan(tb)
	for e := minLog; e <= maxLog; e++ {
		var sets [compoundSets]*core.PlaneSet
		for s := 0; s < compoundSets; s++ {
			skSeed := seed ^ uint64(e)<<32 ^ uint64(s)<<8 ^ 0x1d5e71e5
			sk, err := core.NewSketcher(p, k, 1, 1<<e, skSeed, core.EstimatorAuto)
			if err != nil {
				return nil, err
			}
			sets[s] = sk.AllPositionsPlan(tp)
		}
		pl.sets[e] = sets
	}
	return pl, nil
}

// P returns the Lp exponent.
func (pl *IntervalPool) P() float64 { return pl.p }

// K returns the sketch size.
func (pl *IntervalPool) K() int { return pl.k }

// Len returns the series length.
func (pl *IntervalPool) Len() int { return pl.n }

// dyadicFor returns the log2 of the dyadic length tiling a window of
// length L.
func (pl *IntervalPool) dyadicFor(length int) (int, error) {
	if length < 1<<pl.minLog {
		return 0, fmt.Errorf("series: window %d below smallest pooled length %d",
			length, 1<<pl.minLog)
	}
	e := bits.Len(uint(length)) - 1
	if e > pl.maxLog {
		e = pl.maxLog
	}
	if length > 2<<e {
		return 0, fmt.Errorf("series: window %d exceeds twice the largest pooled length %d",
			length, 1<<pl.maxLog)
	}
	return e, nil
}

// CanSketch reports whether a window is coverable.
func (pl *IntervalPool) CanSketch(start, length int) error {
	if start < 0 || length <= 0 || start+length > pl.n {
		return fmt.Errorf("series: window [%d, %d) outside series of length %d",
			start, start+length, pl.n)
	}
	_, err := pl.dyadicFor(length)
	return err
}

// IsExact reports whether windows of this length hit a pooled dyadic
// length exactly (single-sketch path, full Theorem 1/2 guarantee).
func (pl *IntervalPool) IsExact(length int) bool {
	e, err := pl.dyadicFor(length)
	return err == nil && length == 1<<e
}

// Sketch returns the sketch of the window [start, start+length) in O(k):
// the exact dyadic sketch when length is pooled, otherwise the sum of the
// two overlapping dyadic sketches anchored at the window's ends.
func (pl *IntervalPool) Sketch(start, length int, dst []float64) ([]float64, error) {
	if err := pl.CanSketch(start, length); err != nil {
		return nil, err
	}
	e, _ := pl.dyadicFor(length)
	sets := pl.sets[e]
	if cap(dst) < pl.k {
		dst = make([]float64, pl.k)
	}
	dst = dst[:pl.k]
	if length == 1<<e {
		return sets[0].SketchAt(0, start, dst), nil
	}
	for i := range dst {
		dst[i] = 0
	}
	sets[0].AddSketchAt(0, start, dst)
	sets[1].AddSketchAt(0, start+length-1<<e, dst)
	return dst, nil
}

// Distance estimates the Lp distance between two equal-length windows.
// Exact-dyadic lengths carry the (1±ε) guarantee; others the 2(1+ε)
// compound overcount (each cell covered once or twice).
func (pl *IntervalPool) Distance(aStart, bStart, length int) (float64, error) {
	sa, err := pl.Sketch(aStart, length, nil)
	if err != nil {
		return 0, err
	}
	sb, err := pl.Sketch(bStart, length, nil)
	if err != nil {
		return 0, err
	}
	e, _ := pl.dyadicFor(length)
	sk := pl.sets[e][0].Sketcher()
	return sk.Distance(sa, sb), nil
}

// NearestWindow scans all window positions (stride apart) and returns the
// start of the window most similar to the query window under the pool's
// sketched distance — the "representative trends" primitive of [13].
// The query window itself (any overlap) is excluded.
func (pl *IntervalPool) NearestWindow(queryStart, length, stride int) (int, float64, error) {
	if stride <= 0 {
		return 0, 0, fmt.Errorf("series: stride %d", stride)
	}
	if err := pl.CanSketch(queryStart, length); err != nil {
		return 0, 0, err
	}
	sq, err := pl.Sketch(queryStart, length, nil)
	if err != nil {
		return 0, 0, err
	}
	e, _ := pl.dyadicFor(length)
	sk := pl.sets[e][0].Sketcher()
	scratch := quantile.NewScratch(pl.k)
	buf := make([]float64, pl.k)
	bestStart, bestDist := -1, 0.0
	for s := 0; s+length <= pl.n; s += stride {
		if s < queryStart+length && s+length > queryStart {
			continue // overlaps the query
		}
		if buf, err = pl.Sketch(s, length, buf); err != nil {
			return 0, 0, err
		}
		d := sk.DistanceScratch(sq, buf, scratch)
		if bestStart == -1 || d < bestDist {
			bestStart, bestDist = s, d
		}
	}
	if bestStart == -1 {
		return 0, 0, fmt.Errorf("series: no non-overlapping candidate windows")
	}
	return bestStart, bestDist, nil
}

// BestPair scans all pairs of non-overlapping stride-aligned windows and
// returns the most similar pair under the pool's sketched distance — the
// motif-discovery primitive ("which two periods look alike?"). Cost is
// O(w²·k) for w candidate windows versus O(w²·L) exactly; the sketches
// are read once per window.
func (pl *IntervalPool) BestPair(length, stride int) (aStart, bStart int, dist float64, err error) {
	if stride <= 0 {
		return 0, 0, 0, fmt.Errorf("series: stride %d", stride)
	}
	if err := pl.CanSketch(0, length); err != nil {
		return 0, 0, 0, err
	}
	type window struct {
		start  int
		sketch []float64
	}
	var windows []window
	for s := 0; s+length <= pl.n; s += stride {
		sk, err := pl.Sketch(s, length, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		windows = append(windows, window{start: s, sketch: sk})
	}
	if len(windows) < 2 {
		return 0, 0, 0, fmt.Errorf("series: fewer than two candidate windows")
	}
	e, _ := pl.dyadicFor(length)
	est := pl.sets[e][0].Sketcher()
	scratch := quantile.NewScratch(pl.k)
	best := -1.0
	for i := 0; i < len(windows); i++ {
		for j := i + 1; j < len(windows); j++ {
			wi, wj := windows[i], windows[j]
			if wi.start+length > wj.start { // overlap
				continue
			}
			d := est.DistanceScratch(wi.sketch, wj.sketch, scratch)
			if best < 0 || d < best {
				aStart, bStart, best = wi.start, wj.start, d
			}
		}
	}
	if best < 0 {
		return 0, 0, 0, fmt.Errorf("series: no non-overlapping window pairs")
	}
	return aStart, bStart, best, nil
}
