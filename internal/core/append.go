package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fft"
	"repro/internal/parallel"
	"repro/internal/table"
)

// Incremental dyadic pool maintenance. p-stable sketches are linear in
// the data (§3.2), and a dyadic tile whose columns lie entirely before
// an append is untouched by it (Definition 4) — so appending c columns
// to an N-column table only adds the tiles that END in the new columns.
// The catch is byte-identity: a full-table FFT's rounding couples every
// output to every input column through the padded transform, so a
// fringe computed on a small slab can never bit-match a table-wide
// panel. A fixed panel width (PoolOptions.PanelCols > 0) removes the
// coupling by decree: the canonical build itself correlates in fixed
// overlap-save panels, each through a slab plan whose bytes depend only
// on that slab's columns. Append then recomputes exactly the panels whose
// slab reaches the appended columns — the same per-panel FFTs a
// from-scratch build would run, hence byte-identical output.
//
// A tile belongs to the panel that holds its last column, so a slab
// ends on a panel boundary: an append that ends on one completes its
// panels, nothing computed for it is ever computed again, and it leaves
// no partial panel for the next append to redo.

// colPanels is the overlap-save decomposition of one dyadic column size
// b = 2^j over a cols-wide table into panels of width w =
// max(PanelCols, b), or w = cols when PanelCols is 0: panel q holds the
// tiles whose last column lies in [q·w, (q+1)·w) and is computed from
// the slab of table columns [q·w − b + 1, (q+1)·w) — b − 1 columns of
// left context, clipped at column 0, and zero-extended past the table's
// right edge so the transform size is a function of the slab, not of
// where the table ends.
type colPanels struct {
	j, b, w int
	anchors int   // valid anchor columns: cols − b + 1
	qmin    int   // first panel to (re)compute this pass
	qnum    int   // total panels: ⌈cols / w⌉
	slabs   []int // slabs[q − qmin]: index of panel q's slab plan
}

// span returns panel q's anchor columns [a0, a1) and the width of its
// slab, which starts at table column a0.
func (g *colPanels) span(q int) (a0, a1, slabCols int) {
	a0 = max(q*g.w-g.b+1, 0)
	return a0, min((q+1)*g.w-g.b+1, g.anchors), (q+1)*g.w - a0
}

// firstDirtyPanel returns the first panel of width w whose slab reaches
// a column ≥ fromCols: the panel fromCols itself falls in. Panels before
// it end at or before fromCols, so they saw bit-identical, fully backed
// slabs before and after an append at fromCols and their previously
// computed lanes are reusable verbatim. fromCols = 0 marks every panel
// dirty (a from-scratch build).
func firstDirtyPanel(fromCols, w int) int { return fromCols / w }

// buildPanels (re)computes, for every pooled size, all panels whose slab
// reaches a column ≥ fromCols, writing through into the already
// allocated plane sets: every pool build and every append runs here.
// Without PanelCols each size has one panel as wide as the table, whose
// slab is the table itself. Slab plans are built first, one per distinct
// slab (a0, width) and shared by every size and sketch set that
// correlates against it, then correlation jobs fan out per (rowsize,
// colsize, set); each job writes only its own plane set's lanes, so
// results are byte-identical at any worker count.
//
// sealed, the pool's sealed column count (a multiple of every panel
// width in play, i.e. of segment alignment), additionally floors every
// group's first panel at sealed / w, the first panel of the heap fringe:
// a from-scratch build over adopted bands starts there. For an append
// the floor is redundant — fromCols ≥ sealed — but it turns a would-be
// write into a sealed (read-only, possibly memory-mapped) band into the
// error below or the panelDst panic.
func (pl *Pool) buildPanels(ctx context.Context, t *table.Table, workers, fromCols, sealed int) error {
	panel := pl.opts.PanelCols
	if panel == 0 {
		panel = pl.cols
	}
	var groups []*colPanels
	for j := pl.opts.MinLogCols; j <= pl.opts.MaxLogCols; j++ {
		b := 1 << j
		g := &colPanels{j: j, b: b, w: max(panel, b), anchors: pl.cols - b + 1}
		g.qnum = (pl.cols + g.w - 1) / g.w
		if sealed%g.w != 0 {
			return fmt.Errorf("core: sealed boundary %d not aligned to panel width %d (size 2^%d)",
				sealed, g.w, g.j)
		}
		g.qmin = max(firstDirtyPanel(fromCols, g.w), sealed/g.w)
		if g.qmin >= g.qnum {
			continue // nothing past the sealed boundary yet
		}
		groups = append(groups, g)
	}

	// Pass 1: slab plans, one forward FFT per distinct slab. Panel 0 of
	// every size with the same panel width is the same slab [0, w).
	index := make(map[[2]int]int)
	var slabs [][2]int // (a0, width)
	for _, g := range groups {
		for q := g.qmin; q < g.qnum; q++ {
			a0, _, slabCols := g.span(q)
			key := [2]int{a0, slabCols}
			n, ok := index[key]
			if !ok {
				n = len(slabs)
				index[key] = n
				slabs = append(slabs, key)
			}
			g.slabs = append(g.slabs, n)
		}
	}
	plans := make([]*fft.Plan2D, len(slabs))
	if err := parallel.ForCtx(ctx, workers, len(slabs), func(n int) {
		plans[n] = fft.NewPlan2DSlab(t.Data(), pl.rows, pl.cols, slabs[n][0], slabs[n][1])
	}); err != nil {
		return err
	}

	// Pass 2: correlations. Job (i, g, s) owns plane set (i, g.j, s)
	// entirely; each of its lane blocks runs the job's panels in order,
	// transforming its kernels once per padded size (correlatePanels).
	// When there are fewer jobs than workers, the surplus fans out over
	// the lane blocks instead of leaving cores idle; either split writes
	// the same bytes.
	type corrJob struct {
		i, s int
		g    *colPanels
	}
	var jobs []corrJob
	for i := pl.opts.MinLogRows; i <= pl.opts.MaxLogRows; i++ {
		for _, g := range groups {
			for s := 0; s < compoundSets; s++ {
				jobs = append(jobs, corrJob{i, s, g})
			}
		}
	}
	inner := 1
	if workers > len(jobs) && len(jobs) > 0 {
		inner = (workers + len(jobs) - 1) / len(jobs)
	}
	errs := make([]error, len(jobs))
	if err := parallel.ForCtx(ctx, workers, len(jobs), func(n int) {
		jb := jobs[n]
		g := jb.g
		panels := make([]panelPlan, len(g.slabs))
		for qi, si := range g.slabs {
			a0, a1, _ := g.span(g.qmin + qi)
			panels[qi] = panelPlan{plans[si], a0, a1}
		}
		errs[n] = pl.entries[[2]int{jb.i, g.j}][jb.s].correlatePanels(ctx, panels, inner)
	}); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// Append returns a new Pool over t, an extension of the pool's table by
// new columns on the right, reusing every sketch lane an append cannot
// have changed: only panels whose slab reaches the appended columns are
// recomputed (the same slab FFTs a from-scratch build over t would run),
// so the result is byte-identical to NewPool(t, ...) with this pool's
// parameters — asserted by the incremental-equivalence property tests.
//
// Requirements: the pool was built with PoolOptions.PanelCols > 0, t has
// the pool's row count, at least the pool's column count, and its first
// TableDims() columns are bit-identical to the data the pool was built
// over (the caller owns that contract; the sliding-window ingester
// satisfies it by construction). The receiver is never mutated — it
// remains valid for concurrent queries while and after Append runs, so a
// server can keep answering from the old pool until the new one is
// published. BaseCol carries over unchanged.
//
// Cost: the heap fringe copied forward (sealed bands are shared; the
// fringe is empty when everything before the append is sealed) plus one
// slab FFT pass per panel the new columns fall in — ⌈c / w⌉ or one more
// per size for a c-column append, exactly c / w when it starts and ends
// on panel boundaries.
func (pl *Pool) Append(ctx context.Context, t *table.Table) (*Pool, error) {
	if pl.opts.PanelCols <= 0 {
		return nil, errors.New("core: Append requires a pool built with PoolOptions.PanelCols > 0")
	}
	if t.Rows() != pl.rows {
		return nil, fmt.Errorf("core: Append table has %d rows, pool was built over %d", t.Rows(), pl.rows)
	}
	if t.Cols() < pl.cols {
		return nil, fmt.Errorf("core: Append table has %d cols, fewer than the pool's %d", t.Cols(), pl.cols)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if t.Cols() == pl.cols {
		return pl, nil // nothing appended; the pool is immutable, so sharing is safe
	}
	np := &Pool{
		p: pl.p, k: pl.k, rows: pl.rows, cols: t.Cols(), seed: pl.seed,
		baseCol: pl.baseCol, opts: pl.opts,
		entries: make(map[[2]int][compoundSets]*PlaneSet, len(pl.entries)),
		sealed:  pl.sealed,
	}
	// Copy every lane's heap fringe forward row by row (plane rows widen
	// with the table). Dirty panels are overwritten below; clean panels keep
	// these bytes, which the old build produced from bit-identical slabs.
	// Sealed bands are shared outright — they are immutable and an append
	// cannot reach them — so the forward copy is O(fringe bytes).
	for key, sets := range pl.entries {
		b := 1 << key[1]
		var nsets [compoundSets]*PlaneSet
		for s, ps := range sets {
			nps := &PlaneSet{sk: ps.sk, rows: ps.rows, cols: np.cols - b + 1}
			old := &ps.bands[len(ps.bands)-1] // heap fringe
			nf := heapBand(old.c0, nps.cols, ps.rows, np.k)
			for r := 0; old.stride > 0 && r < ps.rows; r++ {
				copy(nf.data[r*nf.stride:], old.data[r*old.stride:(r+1)*old.stride])
			}
			nps.bands = append(append([]laneBand(nil), ps.bands[:len(ps.bands)-1]...), nf)
			nsets[s] = nps
		}
		np.entries[key] = nsets
	}
	if err := np.buildPanels(ctx, t, parallel.Resolve(pl.opts.Workers), pl.cols, pl.sealed); err != nil {
		return nil, err
	}
	return np, nil
}

// panelDst returns the write destination for the panel whose first
// anchor column is a0: the lane slice positioned at that anchor and the
// row stride of the underlying storage. The panel must lie inside the
// heap fringe (the final band) — writing a sealed, possibly memory-mapped
// band is a bug, so it panics rather than corrupting shared bytes.
func (ps *PlaneSet) panelDst(a0 int) ([]fft.Lane, int) {
	fb := &ps.bands[len(ps.bands)-1]
	if a0 < fb.c0 || fb.ext {
		panic(fmt.Sprintf("core: panel write at anchor %d into sealed band (fringe starts at %d)",
			a0, fb.c0))
	}
	return fb.data[(a0-fb.c0)*ps.sk.k:], fb.stride
}
