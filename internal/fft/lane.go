package fft

import "math"

// Lane is one stored sketch entry: a bfloat16, the top 16 bits of a
// float32 — sign, the float32's 8-bit exponent and 7 of its 23 fraction
// bits, 8 significant bits in all. A harvest narrows a float64
// correlation value to a Lane once (NarrowLane) and a read widens it
// exactly (Float32); nothing else ever rounds a lane.
type Lane uint16

// NarrowLane is the one rounding rule of a stored lane: v rounded to a
// float32 (Go's float32(v): to nearest even, overflow to ±Inf, float32
// subnormals kept), then that float32 rounded to nearest even on its top
// 16 bits. Both steps are monotone, so the rule is. A float32 at or past
// the largest finite lane rounds to ±Inf, ±0 keeps its sign, a subnormal
// rounds within the subnormals or up to the smallest normal, and a NaN
// stays a NaN (quieted) — its low bits are dropped, not rounded, since
// rounding could carry into the exponent. The AVX2 harvest (narrowAVX2)
// computes the same bits; TestAVX2BodiesMatchGo pins both encodings to
// one table.
func NarrowLane(v float64) Lane {
	f := float32(v)
	b := math.Float32bits(f)
	if f != f {
		return Lane(b>>16 | 0x40)
	}
	return Lane((b + 0x7fff + b>>16&1) >> 16)
}

// Float32 widens the lane exactly: its bits are the float32's top 16.
func (l Lane) Float32() float32 { return math.Float32frombits(uint32(l) << 16) }
