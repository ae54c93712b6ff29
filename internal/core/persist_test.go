package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/table"
)

func TestPlaneSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tb := randTable(rng, 16, 20)
	sk, err := NewSketcher(1.5, 8, 4, 4, 99, EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	ps := sk.AllPositions(tb)

	var buf bytes.Buffer
	if err := SavePlaneSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlaneSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gr, gc := got.Positions()
	wr, wc := ps.Positions()
	if gr != wr || gc != wc {
		t.Fatalf("positions %dx%d, want %dx%d", gr, gc, wr, wc)
	}
	// Sketches and distances must be identical.
	for _, anchor := range [][2]int{{0, 0}, {5, 9}, {12, 16}} {
		a := ps.SketchAt(anchor[0], anchor[1], nil)
		b := got.SketchAt(anchor[0], anchor[1], nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sketch at %v differs at %d", anchor, i)
			}
		}
	}
	if d1, d2 := ps.Distance(0, 0, 5, 5), got.Distance(0, 0, 5, 5); d1 != d2 {
		t.Errorf("distances differ: %v vs %v", d1, d2)
	}
	// The rebuilt sketcher is interchangeable: same matrices.
	for i := 0; i < 8; i++ {
		ma, mb := ps.Sketcher().Matrix(i), got.Sketcher().Matrix(i)
		for j := range ma {
			if ma[j] != mb[j] {
				t.Fatalf("rebuilt matrix %d differs", i)
			}
		}
	}
}

// olderVersion rewrites a saved snapshot into what a version-1 to -4
// build would have left on disk, as far as the loader can tell before
// parsing the header: versions 2, 3 and 4 framed their header exactly as
// today (3 is today's layout over the panel grid that keyed a tile by
// its first column, 4 is today's grid with float64 lanes in payload
// sections twice as long), version 1 wrote the parameters straight after
// the version word (no section length, no checksum).
func olderVersion(saved []byte, version byte) []byte {
	old := append([]byte(nil), saved...)
	old[4] = version
	if version == 1 {
		old = append(old[:8], old[16:]...) // drop the header section length
	}
	return old
}

// rejectedByVersion asserts that err names the unsupported version
// rather than reporting whatever misparse the old layout would cause.
func rejectedByVersion(t *testing.T, what string, version byte, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
		t.Errorf("%s version %d: err = %v, want an unsupported-version error", what, version, err)
	}
}

func TestLoadPlaneSetErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE0000000000000000"),
		"truncated": {'S', 'K', 'P', 'L', 1},
	}
	for name, data := range cases {
		if _, err := LoadPlaneSet(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Version mismatch.
	rng := rand.New(rand.NewPCG(2, 2))
	tb := randTable(rng, 8, 8)
	sk, _ := NewSketcher(1, 2, 2, 2, 1, EstimatorAuto)
	ps := sk.AllPositions(tb)
	var buf bytes.Buffer
	if err := SavePlaneSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 0xee
	if _, err := LoadPlaneSet(bytes.NewReader(data)); err == nil {
		t.Error("bad version: expected error")
	}
	for _, v := range []byte{1, 2, 3, 4} {
		_, err := LoadPlaneSet(bytes.NewReader(olderVersion(buf.Bytes(), v)))
		rejectedByVersion(t, "plane set", v, err)
	}
	// Truncated payload.
	buf.Reset()
	if err := SavePlaneSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlaneSet(bytes.NewReader(buf.Bytes()[:buf.Len()-9])); err == nil {
		t.Error("truncated payload: expected error")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	tb := randTable(rng, 32, 32)
	pool, err := NewPool(tb, 1, 8, 777, PoolOptions{
		MinLogRows: 1, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePool(&buf, pool); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.P() != 1 || got.K() != 8 || got.NumSizes() != pool.NumSizes() {
		t.Fatalf("pool params wrong: p=%v k=%d sizes=%d", got.P(), got.K(), got.NumSizes())
	}
	rects := []table.Rect{
		{R0: 0, C0: 0, Rows: 4, Cols: 8},    // exact dyadic
		{R0: 3, C0: 5, Rows: 7, Cols: 11},   // compound
		{R0: 10, C0: 2, Rows: 13, Cols: 30}, // compound, large
	}
	for _, r := range rects {
		a, err := pool.Sketch(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Sketch(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rect %v sketch differs at %d: %v vs %v", r, i, a[i], b[i])
			}
		}
	}
	d1, err := pool.Distance(rects[1], table.Rect{R0: 20, C0: 14, Rows: 7, Cols: 11})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := got.Distance(rects[1], table.Rect{R0: 20, C0: 14, Rows: 7, Cols: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("pool distances differ: %v vs %v", d1, d2)
	}
}

func TestLoadPoolErrors(t *testing.T) {
	if _, err := LoadPool(bytes.NewReader(nil)); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := LoadPool(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic: expected error")
	}
	rng := rand.New(rand.NewPCG(4, 4))
	tb := randTable(rng, 8, 8)
	pool, _ := NewPool(tb, 1, 2, 1, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
	})
	var buf bytes.Buffer
	if err := SavePool(&buf, pool); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	bad := append([]byte(nil), full...)
	bad[4] = 9 // version
	if _, err := LoadPool(bytes.NewReader(bad)); err == nil {
		t.Error("bad version: expected error")
	}
	for _, v := range []byte{1, 2, 3, 4} {
		_, err := LoadPool(bytes.NewReader(olderVersion(full, v)))
		rejectedByVersion(t, "pool", v, err)
	}
	if _, err := LoadPool(bytes.NewReader(full[:len(full)-20])); err == nil {
		t.Error("truncated: expected error")
	}
	// Corrupt header (k = 0).
	bad2 := append([]byte(nil), full...)
	for i := 16; i < 24; i++ {
		bad2[i] = 0
	}
	if _, err := LoadPool(bytes.NewReader(bad2)); err == nil {
		t.Error("zero k: expected error")
	}
}
