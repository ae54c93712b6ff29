package table

import "fmt"

// Grid partitions a table into a regular grid of equal-size tiles, the
// "objects" the paper's clustering experiments operate on (e.g. a day of
// data for a group of 16 neighboring stations). Cells in a trailing
// partial row or column of tiles are dropped, matching the paper's use of
// meaningfully-sized tiles only.
type Grid struct {
	tableRows, tableCols int
	tileRows, tileCols   int
	gridRows, gridCols   int
}

// NewGrid describes the tiling of a rows×cols table into tileRows×tileCols
// tiles. It errors if the tile does not fit at least once.
func NewGrid(tableRows, tableCols, tileRows, tileCols int) (*Grid, error) {
	if tileRows <= 0 || tileCols <= 0 {
		return nil, fmt.Errorf("table: non-positive tile dims %dx%d", tileRows, tileCols)
	}
	if tileRows > tableRows || tileCols > tableCols {
		return nil, fmt.Errorf("table: tile %dx%d larger than table %dx%d",
			tileRows, tileCols, tableRows, tableCols)
	}
	return &Grid{
		tableRows: tableRows, tableCols: tableCols,
		tileRows: tileRows, tileCols: tileCols,
		gridRows: tableRows / tileRows, gridCols: tableCols / tileCols,
	}, nil
}

// NumTiles returns the total number of tiles in the grid.
func (g *Grid) NumTiles() int { return g.gridRows * g.gridCols }

// GridRows returns the number of tile rows.
func (g *Grid) GridRows() int { return g.gridRows }

// GridCols returns the number of tile columns.
func (g *Grid) GridCols() int { return g.gridCols }

// TileRows returns the height of each tile.
func (g *Grid) TileRows() int { return g.tileRows }

// TileCols returns the width of each tile.
func (g *Grid) TileCols() int { return g.tileCols }

// Rect returns the table rectangle of tile i (row-major tile order).
// Panics if i is out of range.
func (g *Grid) Rect(i int) Rect {
	if i < 0 || i >= g.NumTiles() {
		panic(fmt.Sprintf("table: tile index %d out of range [0,%d)", i, g.NumTiles()))
	}
	tr, tc := i/g.gridCols, i%g.gridCols
	return Rect{R0: tr * g.tileRows, C0: tc * g.tileCols, Rows: g.tileRows, Cols: g.tileCols}
}

// Index returns the tile index holding grid position (tileRow, tileCol).
func (g *Grid) Index(tileRow, tileCol int) int {
	if tileRow < 0 || tileRow >= g.gridRows || tileCol < 0 || tileCol >= g.gridCols {
		panic(fmt.Sprintf("table: tile position (%d,%d) outside %dx%d grid",
			tileRow, tileCol, g.gridRows, g.gridCols))
	}
	return tileRow*g.gridCols + tileCol
}

// Tiles materializes every tile of t as a linearized vector. Tiles are
// returned in row-major tile order; each vector has length
// TileRows*TileCols. This is the form the clustering algorithms consume.
func (g *Grid) Tiles(t *Table) [][]float64 {
	if t.Rows() != g.tableRows || t.Cols() != g.tableCols {
		panic(fmt.Sprintf("table: grid built for %dx%d but table is %dx%d",
			g.tableRows, g.tableCols, t.Rows(), t.Cols()))
	}
	out := make([][]float64, g.NumTiles())
	for i := range out {
		out[i] = t.Linearize(g.Rect(i), nil)
	}
	return out
}
