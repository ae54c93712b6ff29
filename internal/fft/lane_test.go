package fft

import (
	"math"
	"testing"
)

// laneTable is the rounding rule of a stored lane, one edge a row: the
// float64 a harvest sees and the Lane it must store, bf16(float32(v)).
var laneTable = []struct {
	v    float64
	want Lane
}{
	{0, 0x0000},
	{math.Copysign(0, -1), 0x8000},
	{1, 0x3f80},
	{-1, 0xbf80},
	// Ties round to even, and only ties: 1 + 2⁻⁸ is halfway between the
	// lanes 1 (0x3f80) and 1 + 2⁻⁷ (0x3f81).
	{1 + 0x1p-8, 0x3f80},
	{1 + 3*0x1p-8, 0x3f82},
	{-(1 + 3*0x1p-8), 0xbf82},
	{1 + 0x1p-8 + 0x1p-20, 0x3f81},
	{1 + 0x1p-8 - 0x1p-20, 0x3f80},
	// Two roundings, not one: v is above the tie, but float32(v) is the
	// tie, which goes to even.
	{1 + 0x1p-8 + 0x1p-30, 0x3f80},
	// The largest finite lane, (2 − 2⁻⁷)·2¹²⁷, and the values that round
	// past it to ±Inf: the tie above it, and MaxFloat32.
	{float64(math.Float32frombits(0x7f7f0000)), 0x7f7f},
	{float64(math.Float32frombits(0x7f7f7fff)), 0x7f7f},
	{float64(math.Float32frombits(0x7f7f8000)), 0x7f80},
	{math.MaxFloat32, 0x7f80},
	{-math.MaxFloat32, 0xff80},
	{1e300, 0x7f80},
	{-1e300, 0xff80},
	{math.Inf(1), 0x7f80},
	{math.Inf(-1), 0xff80},
	// float32 subnormals: the smallest flushes to zero, ties go to even,
	// and the largest rounds up to the smallest normal lane.
	{math.SmallestNonzeroFloat32, 0x0000},
	{-math.SmallestNonzeroFloat32, 0x8000},
	{float64(math.Float32frombits(0x00008000)), 0x0000},
	{float64(math.Float32frombits(0x00018000)), 0x0002},
	{float64(math.Float32frombits(0x00010000)), 0x0001},
	{float64(math.Float32frombits(0x007fffff)), 0x0080},
	{float64(math.Float32frombits(0x80017fff)), 0x8001},
	// Below half the smallest float32 subnormal, float32(v) is already 0.
	{math.SmallestNonzeroFloat32 / 4, 0x0000},
	// A NaN stays a NaN: quieted, never rounded into ±Inf or ±0.
	{math.NaN(), 0x7fc0},
	{math.Copysign(math.NaN(), -1), 0xffc0},
}

func TestNarrowLaneTable(t *testing.T) {
	for _, e := range laneTable {
		if got := NarrowLane(e.v); got != e.want {
			t.Errorf("NarrowLane(%v) = %#04x, want %#04x", e.v, got, e.want)
		}
	}
	// Widening is exact: every finite lane narrows back to itself.
	for l := Lane(0); l < 0xffff; l++ {
		if f := l.Float32(); f == f && NarrowLane(float64(f)) != l {
			t.Fatalf("lane %#04x widens to %v, which narrows to %#04x", l, f, NarrowLane(float64(f)))
		}
	}
	harvestTable(t, "Go", harvestLinesGo)
}

// harvestTable runs laneTable through a block harvest: the table's values
// fill the real and imaginary parts of eight scratch rows, at every lane
// of a position in turn, and every stored lane must be the table's.
func harvestTable(t *testing.T, name string, harvest func([]*[]complex128, int, int, int, []Lane, int, int)) {
	t.Helper()
	const lanes = BlockLanes
	cols := len(laneTable)
	scr := make([]*[]complex128, lanes/2)
	for i := range scr {
		s := make([]complex128, cols)
		scr[i] = &s
	}
	at := func(c, lane int) int { return (c + lane) % cols } // table row of a lane
	for c := 0; c < cols; c++ {
		for i, s := range scr {
			(*s)[c] = complex(laneTable[at(c, 2*i)].v, laneTable[at(c, 2*i+1)].v)
		}
	}
	dst := make([]Lane, cols*lanes)
	harvest(scr, cols, 1, cols, dst, cols*lanes, lanes)
	for c := 0; c < cols; c++ {
		for lane := 0; lane < lanes; lane++ {
			e := laneTable[at(c, lane)]
			if got := dst[c*lanes+lane]; got != e.want {
				t.Errorf("%s harvest, position %d lane %d: %v stored as %#04x, want %#04x",
					name, c, lane, e.v, got, e.want)
			}
		}
	}
}
