package core

import (
	"fmt"
	"sort"
)

// Sealed bands. A segment store persists the sealed prefix of a
// panel-mode pool's anchor columns as immutable files and serves their
// lanes straight from a memory mapping. The core-side contract is the
// plane-set layout (see laneBand in planes.go): anchor columns are
// partitioned into contiguous bands, sealed bands view externally
// owned memory, and the final heap band — the fringe — is the only
// region the panel builder ever writes. Because the panel grid is
// anchored at absolute column positions and a sealed boundary is a
// multiple of every panel width in play, the sealed bytes are exactly
// the bytes a from-scratch heap build would produce: heap-backed and
// mmap-backed pools over the same window answer byte-identically.

// LaneID names one plane set of a pool: the dyadic tile size
// (2^I)×(2^J) and the independent sketch set S in [0, 4).
type LaneID struct{ I, J, S int }

// Lanes returns every lane of the pool in canonical (I, J, S) order —
// the order segment files store lane blobs in.
func (pl *Pool) Lanes() []LaneID {
	ids := make([]LaneID, 0, len(pl.entries)*compoundSets)
	for key := range pl.entries {
		for s := 0; s < compoundSets; s++ {
			ids = append(ids, LaneID{I: key[0], J: key[1], S: s})
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		x, y := ids[a], ids[b]
		if x.I != y.I {
			return x.I < y.I
		}
		if x.J != y.J {
			return x.J < y.J
		}
		return x.S < y.S
	})
	return ids
}

// LaneRows returns the number of anchor rows of lane id's plane
// (tableRows − 2^I + 1).
func (pl *Pool) LaneRows(id LaneID) int { return pl.rows - 1<<id.I + 1 }

// SealedCols returns the sealed column count: anchor columns
// [0, SealedCols) of every lane view externally owned bands. 0 for a
// pool nothing has sealed.
func (pl *Pool) SealedCols() int { return pl.sealed }

// SegAlign returns the pool's segment alignment, the column granularity
// at which a sealed boundary may be cut: max(PanelCols, 2^MaxLogCols).
// Every panel width w_j = max(PanelCols, 2^j) divides it when PanelCols
// is a power of two, which sealing requires.
func (pl *Pool) SegAlign() int { return segAlign(pl.opts) }

func segAlign(opts PoolOptions) int {
	return max(opts.PanelCols, 1<<opts.MaxLogCols)
}

// CopyLaneBand copies anchor columns [c0, c1) of lane id into dst
// (allocated if too small), row-major within the band — the layout
// sealed bands and segment blobs use: element (r, c, i) at
// dst[(r*(c1-c0)+c-c0)*k+i]. The segment writer uses it to extract a
// seal-ready band from the fringe.
func (pl *Pool) CopyLaneBand(id LaneID, c0, c1 int, dst []float64) ([]float64, error) {
	sets, ok := pl.entries[[2]int{id.I, id.J}]
	if !ok || id.S < 0 || id.S >= compoundSets {
		return nil, fmt.Errorf("core: pool has no lane %+v", id)
	}
	ps := sets[id.S]
	if c0 < 0 || c1 > ps.cols || c0 >= c1 {
		return nil, fmt.Errorf("core: lane %+v band [%d,%d) outside anchor columns [0,%d)",
			id, c0, c1, ps.cols)
	}
	n := ps.rows * (c1 - c0) * pl.k
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	ps.copyCols(c0, c1, dst)
	return dst, nil
}

// SealedBand hands NewBandedPool or Reband one immutable, externally
// stored band of sealed anchor columns [C0, C1) (table-column units,
// uniform across lanes). Lane returns the band's payload for one lane —
// LaneRows(id)·(C1−C0)·k floats, row-major within the band. Returned
// slices are adopted, not copied: they may view a read-only memory
// mapping, and the pool never writes them.
type SealedBand struct {
	C0, C1 int
	Lane   func(LaneID) []float64
}

// validateSealedBands checks contiguity from column 0 and alignment of
// the sealed boundary, returning the sealed column count.
func validateSealedBands(sealed []SealedBand, opts PoolOptions, tableCols int) (int, error) {
	if len(sealed) == 0 {
		return 0, nil
	}
	if opts.PanelCols <= 0 || opts.PanelCols&(opts.PanelCols-1) != 0 {
		return 0, fmt.Errorf("core: sealed bands require power-of-two PanelCols, got %d", opts.PanelCols)
	}
	at := 0
	for i, sb := range sealed {
		if sb.C0 != at || sb.C1 <= sb.C0 {
			return 0, fmt.Errorf("core: sealed band %d spans [%d,%d), want contiguous from %d",
				i, sb.C0, sb.C1, at)
		}
		if sb.Lane == nil {
			return 0, fmt.Errorf("core: sealed band %d has no lane accessor", i)
		}
		at = sb.C1
	}
	align := segAlign(opts)
	if at%align != 0 {
		return 0, fmt.Errorf("core: sealed boundary %d not a multiple of segment alignment %d", at, align)
	}
	// The boundary must leave every lane's plane at least the sealed
	// columns: the tightest plane is the widest tile's,
	// cols − 2^MaxLogCols + 1 anchor columns.
	if lim := tableCols - 1<<opts.MaxLogCols + 1; at > lim {
		return 0, fmt.Errorf("core: sealed boundary %d exceeds sealable limit %d of a %d-column table",
			at, lim, tableCols)
	}
	return at, nil
}

// bandLanes builds one lane's band list: the adopted sealed bands plus
// a freshly allocated heap fringe covering [sealedTo, planeCols). Lane
// payload lengths are validated against the plane geometry.
func bandLanes(id LaneID, planeRows, planeCols, k, sealedTo int, sealed []SealedBand) ([]laneBand, error) {
	bands := make([]laneBand, 0, len(sealed)+1)
	for _, sb := range sealed {
		data := sb.Lane(id)
		if want := planeRows * (sb.C1 - sb.C0) * k; len(data) != want {
			return nil, fmt.Errorf("core: sealed band [%d,%d) lane %+v has %d floats, want %d",
				sb.C0, sb.C1, id, len(data), want)
		}
		bands = append(bands, laneBand{c0: sb.C0, c1: sb.C1, data: data, ext: true})
	}
	bands = append(bands, laneBand{c0: sealedTo, c1: planeCols,
		data: make([]float64, planeRows*(planeCols-sealedTo)*k)})
	return bands, nil
}

// Reband returns a pool equal to pl with its sealed prefix re-expressed
// over the given bands, which must cover anchor columns [0, newSealed)
// for some newSealed ≥ pl.SealedCols(): after the ingester seals a new
// segment (or the compactor merges existing ones) it rebands the
// working pool onto the store's canonical mapped bands. Bytes do not
// change — only their backing does — so no FFT runs: the new fringe is
// a plain copy of the old fringe's surviving suffix, and sealed bands
// are adopted as-is. The receiver is never mutated and remains valid
// for concurrent queries. The first seal of a fresh run starts from a
// pool with no sealed bands at all.
func (pl *Pool) Reband(sealed []SealedBand) (*Pool, error) {
	if pl.opts.PanelCols <= 0 {
		return nil, fmt.Errorf("core: Reband requires a panel-mode pool")
	}
	newSealed, err := validateSealedBands(sealed, pl.opts, pl.cols)
	if err != nil {
		return nil, err
	}
	if newSealed < pl.sealed {
		return nil, fmt.Errorf("core: Reband would unseal columns (%d < %d)", newSealed, pl.sealed)
	}
	np := &Pool{
		p: pl.p, k: pl.k, rows: pl.rows, cols: pl.cols, seed: pl.seed,
		baseCol: pl.baseCol, opts: pl.opts,
		entries: make(map[[2]int][compoundSets]*PlaneSet, len(pl.entries)),
		sealed:  newSealed,
	}
	for key, sets := range pl.entries {
		var nsets [compoundSets]*PlaneSet
		for s, ps := range sets {
			nps := &PlaneSet{sk: ps.sk, rows: ps.rows, cols: ps.cols}
			nps.bands, err = bandLanes(LaneID{key[0], key[1], s}, ps.rows, ps.cols, pl.k, newSealed, sealed)
			if err != nil {
				return nil, err
			}
			fr := &nps.bands[len(nps.bands)-1]
			if fr.c1 > fr.c0 {
				ps.copyCols(fr.c0, fr.c1, fr.data)
			}
			nsets[s] = nps
		}
		np.entries[key] = nsets
	}
	return np, nil
}

// FloorAlign rounds n down to a non-negative multiple of align.
func FloorAlign(n, align int) int {
	if n <= 0 {
		return 0
	}
	return n - n%align
}

// SealableCols returns the largest aligned sealed boundary the pool's
// current width permits: the sealable limit cols − 2^MaxLogCols + 1
// rounded down to segment alignment. The ingester seals [SealedCols,
// SealableCols) when the former lags the latter.
func (pl *Pool) SealableCols() int {
	return FloorAlign(pl.cols-1<<pl.opts.MaxLogCols+1, segAlign(pl.opts))
}
