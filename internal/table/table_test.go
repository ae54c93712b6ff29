package table

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// TestNonFiniteRejected: the value-carrying constructors and CheckFinite
// reject NaN/±Inf with ErrNonFinite, so non-finite cells cannot enter a
// Table through the validated ingress points.
func TestNonFiniteRejected(t *testing.T) {
	for name, bad := range map[string]float64{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
	} {
		if _, err := FromData(1, 2, []float64{1, bad}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: FromData err = %v, want ErrNonFinite", name, err)
		}
		if _, err := FromRows([][]float64{{1, 2}, {bad, 4}}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: FromRows err = %v, want ErrNonFinite", name, err)
		}
		tb := New(2, 2)
		tb.Set(0, 1, bad)
		if err := CheckFinite(tb); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: CheckFinite err = %v, want ErrNonFinite", name, err)
		}
	}
	ok := New(2, 2)
	if err := CheckFinite(ok); err != nil {
		t.Errorf("CheckFinite on finite table: %v", err)
	}
}

func TestNewAndAccessors(t *testing.T) {
	tb := New(3, 4)
	if tb.Rows() != 3 || tb.Cols() != 4 || tb.Size() != 12 {
		t.Fatalf("dims wrong: %dx%d size %d", tb.Rows(), tb.Cols(), tb.Size())
	}
	tb.Set(2, 3, 7.5)
	if tb.At(2, 3) != 7.5 {
		t.Error("Set/At mismatch")
	}
	if tb.Row(2)[3] != 7.5 {
		t.Error("Row aliasing broken")
	}
	if len(tb.Data()) != 12 {
		t.Error("Data length wrong")
	}
}

func TestNewPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v): expected panic", dims)
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromData(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	tb, err := FromData(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if tb.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", tb.At(1, 2))
	}
	// FromData must alias, not copy.
	data[0] = 99
	if tb.At(0, 0) != 99 {
		t.Error("FromData copied instead of aliasing")
	}
	if _, err := FromData(2, 3, []float64{1}); err == nil {
		t.Error("expected length error")
	}
	if _, err := FromData(0, 3, nil); err == nil {
		t.Error("expected dims error")
	}
}

func TestFromRows(t *testing.T) {
	tb, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 || tb.Cols() != 2 || tb.At(2, 1) != 6 {
		t.Error("FromRows content wrong")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected ragged error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("expected empty error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 2)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestRect(t *testing.T) {
	r := Rect{R0: 1, C0: 2, Rows: 3, Cols: 4}
	if r.Size() != 12 {
		t.Errorf("Size = %d, want 12", r.Size())
	}
	if !r.In(4, 6) {
		t.Error("rect should fit in 4x6")
	}
	if r.In(4, 5) {
		t.Error("rect should not fit in 4x5")
	}
	if r.In(3, 6) {
		t.Error("rect should not fit in 3x6")
	}
	if (Rect{R0: -1, C0: 0, Rows: 1, Cols: 1}).In(5, 5) {
		t.Error("negative origin should not fit")
	}
	if (Rect{Rows: 0, Cols: 1}).In(5, 5) {
		t.Error("zero-size rect should not fit")
	}
	if got := r.String(); got != "[1:4,2:6]" {
		t.Errorf("String = %q", got)
	}
}

func TestSubAndLinearize(t *testing.T) {
	tb, _ := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	r := Rect{R0: 1, C0: 1, Rows: 2, Cols: 2}
	sub := tb.Sub(r)
	want := [][]float64{{6, 7}, {10, 11}}
	for i := range want {
		for j := range want[i] {
			if sub.At(i, j) != want[i][j] {
				t.Fatalf("Sub(%d,%d) = %v, want %v", i, j, sub.At(i, j), want[i][j])
			}
		}
	}
	lin := tb.Linearize(r, nil)
	wantLin := []float64{6, 7, 10, 11}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Fatalf("Linearize = %v, want %v", lin, wantLin)
		}
	}
	// Reuse a buffer.
	buf := make([]float64, 10)
	lin2 := tb.Linearize(r, buf)
	if &lin2[0] != &buf[0] {
		t.Error("Linearize did not reuse provided buffer")
	}
}

func TestSubPanicsOutOfBounds(t *testing.T) {
	tb := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tb.Sub(Rect{R0: 2, C0: 2, Rows: 2, Cols: 2})
}

func TestStitch(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5}, {6}})
	s, err := Stitch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 2 || s.Cols() != 3 {
		t.Fatalf("stitched dims %dx%d, want 2x3", s.Rows(), s.Cols())
	}
	want := [][]float64{{1, 2, 5}, {3, 4, 6}}
	for i := range want {
		for j := range want[i] {
			if s.At(i, j) != want[i][j] {
				t.Fatalf("stitched(%d,%d) = %v, want %v", i, j, s.At(i, j), want[i][j])
			}
		}
	}
}

func TestStitchErrors(t *testing.T) {
	if _, err := Stitch(); err == nil {
		t.Error("expected empty-stitch error")
	}
	a := New(2, 2)
	b := New(3, 2)
	if _, err := Stitch(a, b); err == nil {
		t.Error("expected row-mismatch error")
	}
}

func TestSummarize(t *testing.T) {
	tb, _ := FromRows([][]float64{{1, -2}, {3, 6}})
	s := tb.Summarize()
	if s.Min != -2 || s.Max != 6 || s.Sum != 8 || s.Mean != 2 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestEqualApprox(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{1.0000001, 2}})
	if !EqualApprox(a, b, 1e-6) {
		t.Error("tables should be approx equal")
	}
	if EqualApprox(a, b, 1e-9) {
		t.Error("tables should differ at tight tolerance")
	}
	c := New(2, 1)
	if EqualApprox(a, c, 1) {
		t.Error("different shapes should not be equal")
	}
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(10, 12, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.GridRows() != 5 || g.GridCols() != 4 || g.NumTiles() != 20 {
		t.Fatalf("grid dims %dx%d (%d tiles)", g.GridRows(), g.GridCols(), g.NumTiles())
	}
	if g.TileRows() != 2 || g.TileCols() != 3 {
		t.Error("tile dims wrong")
	}
	r := g.Rect(5) // tile row 1, tile col 1
	if r.R0 != 2 || r.C0 != 3 || r.Rows != 2 || r.Cols != 3 {
		t.Errorf("Rect(5) = %v", r)
	}
	if g.Index(1, 1) != 5 {
		t.Errorf("Index(1,1) = %d, want 5", g.Index(1, 1))
	}
}

func TestGridDropsPartialTiles(t *testing.T) {
	g, err := NewGrid(7, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTiles() != 9 {
		t.Errorf("NumTiles = %d, want 9 (3x3 full tiles)", g.NumTiles())
	}
	last := g.Rect(8)
	if !last.In(7, 7) {
		t.Errorf("last tile %v escapes the table", last)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(4, 4, 0, 2); err == nil {
		t.Error("expected error for zero tile dim")
	}
	if _, err := NewGrid(4, 4, 5, 2); err == nil {
		t.Error("expected error for oversized tile")
	}
}

func TestGridPanics(t *testing.T) {
	g, _ := NewGrid(4, 4, 2, 2)
	for name, f := range map[string]func(){
		"rect":  func() { g.Rect(4) },
		"rectN": func() { g.Rect(-1) },
		"index": func() { g.Index(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGridTiles(t *testing.T) {
	tb := New(4, 4)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range tb.Data() {
		tb.Data()[i] = rng.Float64()
	}
	g, _ := NewGrid(4, 4, 2, 2)
	tiles := g.Tiles(tb)
	if len(tiles) != 4 {
		t.Fatalf("len(tiles) = %d, want 4", len(tiles))
	}
	for i, tile := range tiles {
		want := tb.Linearize(g.Rect(i), nil)
		for j := range want {
			if tile[j] != want[j] {
				t.Fatalf("tile %d differs at %d", i, j)
			}
		}
	}
}

func TestGridTilesWrongTable(t *testing.T) {
	g, _ := NewGrid(4, 4, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched table")
		}
	}()
	g.Tiles(New(5, 4))
}

func TestLinearizeFullTableIsData(t *testing.T) {
	tb := New(3, 5)
	for i := range tb.Data() {
		tb.Data()[i] = float64(i)
	}
	lin := tb.Linearize(Rect{Rows: 3, Cols: 5}, nil)
	for i, v := range lin {
		if v != float64(i) {
			t.Fatalf("full linearize differs at %d", i)
		}
	}
	if math.Abs(lin[7]-7) > 0 {
		t.Error("sanity")
	}
}
