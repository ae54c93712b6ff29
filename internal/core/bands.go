package core

import (
	"fmt"
	"sort"

	"repro/internal/fft"
)

// Sealed bands. A segment store persists the sealed prefix of a
// panel-mode pool as immutable files and serves their lanes straight
// from a memory mapping. A tile belongs to the table column it ENDS in:
// sealing table columns [0, T) seals every tile whose last column is
// below T, which for a lane of tile width b is anchor columns
// [0, T − b + 1). The core-side contract is the plane-set layout (see
// laneBand in planes.go): anchor columns are partitioned into
// contiguous bands, sealed bands view externally owned memory, and the
// final heap band — the fringe, anchors [max(T − b + 1, 0), …) — is the
// only region the panel builder ever writes. The panel grid is keyed
// the same way (append.go) and a sealed boundary is a multiple of every
// panel width in play, so a boundary never cuts a panel: the sealed
// bytes are exactly the bytes a from-scratch heap build would produce,
// and heap-backed and mmap-backed pools over the same window answer
// byte-identically.

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

// LaneBlob streams the band of table columns [c0, c1) of lane id to emit
// in the layout sealed bands and segment blobs use: row-major, one group
// of k lanes per table column, column e − c0 of a row holding the tile
// whose LAST column is e, zeros for tiles that would start before table
// column 0. The lanes are handed over in place — views of the bands that
// hold them, never to be written or kept past emit — so a seal reads
// each lane once. A heap fringe that begins at c0 and ends at c1 already
// has the blob's layout and goes in one call: that is every seal of a
// pool whose unsealed columns end on a segment boundary (each aligned day
// an ingester appends). Otherwise emit sees a row at a time, a run per
// band it crosses.
func (pl *Pool) LaneBlob(id LaneID, c0, c1 int, emit func([]fft.Lane) error) error {
	sets, ok := pl.entries[[2]int{id.I, id.J}]
	if !ok || id.S < 0 || id.S >= compoundSets {
		return fmt.Errorf("core: pool has no lane %+v", id)
	}
	ps := sets[id.S]
	if c0 < 0 || c1 > pl.cols || c0 >= c1 {
		return fmt.Errorf("core: lane %+v band [%d,%d) outside table columns [0,%d)",
			id, c0, c1, pl.cols)
	}
	b, k, w := 1<<id.J, pl.k, c1-c0
	a0, a1 := max(c0-b+1, 0), c1-b+1 // anchors of the tiles ending in [c0, c1)
	lead := min(a0+b-1-c0, w) * k    // leading zero lanes of every row
	if fb := &ps.bands[len(ps.bands)-1]; lead == 0 && fb.c0 == a0 && fb.c1 == a1 {
		return emit(fb.data[:ps.rows*fb.stride])
	}
	zeros := make([]fft.Lane, lead)
	for r := 0; r < ps.rows; r++ {
		if lead > 0 {
			if err := emit(zeros); err != nil {
				return err
			}
		}
		for bi := range ps.bands {
			bd := &ps.bands[bi]
			if lo, hi := max(a0, bd.c0), min(a1, bd.c1); lo < hi {
				if err := emit(bd.data[r*bd.stride+(lo-bd.c0)*k : r*bd.stride+(hi-bd.c0)*k]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CopyLaneBand copies LaneBlob's band of table columns [c0, c1) of lane
// id into dst (allocated if too small).
func (pl *Pool) CopyLaneBand(id LaneID, c0, c1 int, dst []fft.Lane) ([]fft.Lane, error) {
	if n := pl.LaneRows(id) * (c1 - c0) * pl.k; cap(dst) < n && n > 0 {
		dst = make([]fft.Lane, 0, n)
	}
	dst = dst[:0]
	err := pl.LaneBlob(id, c0, c1, func(lanes []fft.Lane) error {
		dst = append(dst, lanes...)
		return nil
	})
	return dst, err
}

// SealedBand hands NewBandedPool or Reband one immutable, externally
// stored band of sealed table columns [C0, C1) (uniform across lanes).
// Lane returns the band's payload for one lane — LaneRows(id)·(C1−C0)·k
// lanes in CopyLaneBand's layout: column e − C0 of a row is the tile
// whose last column is e. Returned slices are adopted, not copied: they
// may view a read-only memory mapping, and the pool never writes them.
// Entries of tiles that start before table column 0 (the first b − 1
// columns of the band at C0 = 0) are never read.
type SealedBand struct {
	C0, C1 int
	Lane   func(LaneID) []fft.Lane
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
	if at > tableCols {
		return 0, fmt.Errorf("core: sealed boundary %d beyond a %d-column table", at, tableCols)
	}
	return at, nil
}

// bandLanes builds one lane's band list: the adopted sealed bands, each
// viewing the anchors [max(C0 − b + 1, 0), C1 − b + 1) of its blob in
// place, plus a freshly allocated heap fringe for the tiles that end at
// or after sealedTo. Lane payload lengths are validated against the
// plane geometry.
func bandLanes(id LaneID, planeRows, planeCols, k, sealedTo int, sealed []SealedBand) ([]laneBand, error) {
	b := 1 << id.J
	bands := make([]laneBand, 0, len(sealed)+1)
	for _, sb := range sealed {
		data := sb.Lane(id)
		if want := planeRows * (sb.C1 - sb.C0) * k; len(data) != want {
			return nil, fmt.Errorf("core: sealed band [%d,%d) lane %+v has %d lanes, want %d",
				sb.C0, sb.C1, id, len(data), want)
		}
		a0 := max(sb.C0-b+1, 0)
		bands = append(bands, laneBand{c0: a0, c1: sb.C1 - b + 1,
			data: data[(a0+b-1-sb.C0)*k:], stride: (sb.C1 - sb.C0) * k, ext: true})
	}
	return append(bands, heapBand(max(sealedTo-b+1, 0), planeCols, planeRows, k)), nil
}

// Reband returns a pool equal to pl minus its first drop table columns,
// with its sealed prefix re-expressed over the given bands: after the
// ingester trims the window (drop > 0, whole leading segments), seals a
// new segment or the compactor merges existing ones (drop = 0), it
// rebands the working pool onto the store's canonical mapped bands.
// sealed is relative to the new column 0 and must cover at least what
// pl had sealed past the drop; drop is a multiple of SegAlign, so the
// panel grid of the surviving columns does not move. Bytes do not
// change — only their backing and their address do — so no FFT runs and
// no sketcher is regenerated: sealed bands are adopted as-is, the new
// fringe is a plain copy of the old pool's lanes at the same absolute
// positions, plane sets share pl's sketchers and BaseCol advances by
// drop. The receiver is never mutated and remains valid for concurrent
// queries. The first seal of a fresh run starts from a pool with no
// sealed bands at all.
func (pl *Pool) Reband(drop int, sealed []SealedBand) (*Pool, error) {
	if pl.opts.PanelCols <= 0 {
		return nil, fmt.Errorf("core: Reband requires a panel-mode pool")
	}
	cols := pl.cols - drop
	if drop < 0 || drop%segAlign(pl.opts) != 0 || cols < 1<<pl.opts.MaxLogCols {
		return nil, fmt.Errorf("core: Reband drop %d of %d columns negative, unaligned to %d or leaving less than one %d-column tile",
			drop, pl.cols, segAlign(pl.opts), 1<<pl.opts.MaxLogCols)
	}
	newSealed, err := validateSealedBands(sealed, pl.opts, cols)
	if err != nil {
		return nil, err
	}
	if newSealed+drop < pl.sealed {
		return nil, fmt.Errorf("core: Reband would unseal columns (%d < %d)", newSealed+drop, pl.sealed)
	}
	np := &Pool{
		p: pl.p, k: pl.k, rows: pl.rows, cols: cols, seed: pl.seed,
		baseCol: pl.baseCol + drop, opts: pl.opts,
		entries: make(map[[2]int][compoundSets]*PlaneSet, len(pl.entries)),
		sealed:  newSealed,
	}
	for key, sets := range pl.entries {
		var nsets [compoundSets]*PlaneSet
		for s, ps := range sets {
			nps := &PlaneSet{sk: ps.sk, rows: ps.rows, cols: ps.cols - drop}
			nps.bands, err = bandLanes(LaneID{key[0], key[1], s}, nps.rows, nps.cols, pl.k, newSealed, sealed)
			if err != nil {
				return nil, err
			}
			fr := &nps.bands[len(nps.bands)-1]
			if fr.c1 > fr.c0 {
				ps.copyCols(fr.c0+drop, fr.c1+drop, fr.data, fr.stride)
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

// SealableCols returns the largest sealed boundary the pool's current
// width permits: its column count rounded down to segment alignment. A
// tile is sealed with the column it ends in, so every whole aligned
// block of columns is sealable the moment it is sketched. The ingester
// seals [SealedCols, SealableCols) when the former lags the latter.
func (pl *Pool) SealableCols() int {
	return FloorAlign(pl.cols, segAlign(pl.opts))
}
