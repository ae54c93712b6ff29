package main

import (
	"math"
	"sort"

	"repro/internal/quantile"
)

// The noise model (README "Noise"): on the shared box fixed work only
// ever gets slower under interference, the interference comes and goes
// within milliseconds, and how much of the time it is there changes over
// minutes. Every piece of a round's fixed work (a slot: one request of
// the cycle, one day pushed) is therefore timed once per round, and the
// timing metrics are taken over the quiet quarter of each slot's
// samples, never over all of them.

// quietSamples returns, for every slot, the ⌈R/4⌉ smallest of its R
// samples in ascending order; perRound[r][j] is slot j in round r.
func quietSamples(perRound [][]float64) [][]float64 {
	if len(perRound) == 0 {
		return nil
	}
	keep := (len(perRound) + 3) / 4
	out := make([][]float64, len(perRound[0]))
	col := make([]float64, len(perRound))
	for j := range out {
		for r := range perRound {
			col[r] = perRound[r][j]
		}
		sort.Float64s(col)
		out[j] = append([]float64(nil), col[:keep]...)
	}
	return out
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of sorted samples.
// ok is false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// pooled gathers samples into one sorted slice.
func pooled(samples [][]float64) []float64 {
	var out []float64
	for _, s := range samples {
		out = append(out, s...)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of
// values as Python's statistics.quantiles(values, n=4) computes them
// (the exclusive method), so spreads printed here are the driver's.
// It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based, fractional
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the
// median: the steadiness figure every bound is compared with.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return quantile.MedianCopy(values)
}

// calibBuf is the working set of the calibration kernel: 32 KiB, inside
// L1 on anything this runs on, so the kernel measures core speed alone.
var calibBuf = func() []float64 {
	b := make([]float64, 4096)
	for i := range b {
		b[i] = 1 + float64(i)*1e-6
	}
	return b
}()

// calibSink keeps the kernel's result alive.
var calibSink float64

// calibKernel is a fixed piece of pure-Go floating-point work (about
// 2 ms on the reference box). It is timed before every round so that
// slow machine phases are visible next to the round they slowed, and so
// absolute numbers can be normalised across machines.
func calibKernel() {
	var acc float64
	for rep := 0; rep < 256; rep++ {
		for _, v := range calibBuf {
			acc = acc*0.999 + v
		}
	}
	calibSink = acc
}
