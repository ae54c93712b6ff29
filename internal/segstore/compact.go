package segstore

import (
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fft"
)

// DefaultCompactFanout is how many adjacent same-level segments a
// compaction merges into one segment of the next level.
const DefaultCompactFanout = 4

// Compact merges the first run of at least fanout column-adjacent
// segments sharing a level into a single segment of level+1 — classic
// size-tiered compaction, with column adjacency guaranteed by the
// manifest's contiguous tiling. The merged file is written and fsynced
// before an atomic manifest swap replaces its inputs; the inputs stay
// mapped (and their files on disk) until the last View referencing them
// releases, so queries over pre-compaction snapshots are untouched. At
// most one merge runs per call — the ingester calls it from its
// maintenance loop, bounding per-step work.
//
// Reports whether a merge happened. A failed merge leaves the live set
// unchanged (and counts in tabmine_seg_compactions_failed_total).
// Compact is CompactAfter with the horizon at the base: every live
// segment may be merged.
func (st *Store) Compact(fanout int) (bool, error) {
	return st.CompactAfter(fanout, math.MinInt)
}

// CompactAfter is Compact over the segments that end after absolute
// column horizon: a segment with T1 ≤ horizon is never read, so the run
// is the leftmost one among the live segments past it. The ingester
// passes the lowest column its next window trim can keep from (Trim
// drops every segment with T1 ≤ keepFrom), so it never rewrites columns
// that trim is certain to delete; a segment straddling the horizon
// survives the trim and stays eligible.
func (st *Store) CompactAfter(fanout, horizon int) (bool, error) {
	if fanout < 2 {
		fanout = DefaultCompactFanout
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	run, level := st.compactRunLocked(fanout, horizon)
	if run == nil {
		return false, nil
	}
	merged, err := st.mergeLocked(run, level+1)
	if err != nil {
		mSegCompactFailed.Add(1)
		return false, err
	}
	if err := st.commitLocked([]Entry{merged}, run, func(m *manifest) {
		out := make([]Entry, 0, len(m.Segments)-len(run)+1)
		inserted := false
		for _, e := range m.Segments {
			if e.T1 <= merged.T0 || e.T0 >= merged.T1 {
				out = append(out, e)
				continue
			}
			if !inserted {
				out = append(out, merged)
				inserted = true
			}
		}
		m.Segments = out
		m.NextSeq = merged.Seq + 1
	}); err != nil {
		mSegCompactFailed.Add(1)
		return false, err
	}
	mSegCompactions.Add(1)
	return true, nil
}

// compactRunLocked finds the leftmost run of ≥ fanout consecutive
// entries sharing a level among those ending after horizon, and returns
// its first fanout entries.
func (st *Store) compactRunLocked(fanout, horizon int) ([]Entry, int) {
	segs := st.man.Segments
	i := 0
	for i < len(segs) && segs[i].T1 <= horizon {
		i++
	}
	for i < len(segs) {
		j := i
		for j < len(segs) && segs[j].Level == segs[i].Level {
			j++
		}
		if j-i >= fanout {
			return append([]Entry(nil), segs[i:i+fanout]...), segs[i].Level
		}
		i = j
	}
	return nil, 0
}

// mergeLocked writes the merged segment for run (column-adjacent, in
// order). Lane payloads are the per-plane-row interleave of the inputs'
// bands — bands are row-major within the band, so a whole-blob
// concatenation would scramble rows; each output row r is the
// concatenation of every input's row r (a column is the stream column a
// tile ends in, whichever file holds it), streamed from the inputs'
// mappings with no copy. The merged bytes are exactly the band [T0, T1)
// a single wide seal would have produced, so pools rebanded onto the
// merged segment stay byte-identical.
func (st *Store) mergeLocked(run []Entry, level int) (Entry, error) {
	ins := make([]*segment, len(run))
	for n, e := range run {
		sg, ok := st.segs[e.Seq]
		if !ok {
			return Entry{}, fmt.Errorf("segstore: compaction input seq %d not live", e.Seq)
		}
		ins[n] = sg
	}
	t0, t1 := run[0].T0, run[len(run)-1].T1
	seq := st.man.NextSeq
	name := fmt.Sprintf("seg-%08d-l%d.seg", seq, level)
	k := st.params.K
	return writeSegmentFile(filepath.Join(st.dir, name), st.params, level, seq, t0, t1,
		func(id core.LaneID, emit func([]fft.Lane) error) error {
			for r := 0; r < st.params.laneRows(id.I); r++ {
				for _, sg := range ins {
					src, ok := sg.lanes[id]
					if !ok {
						return fmt.Errorf("segstore: input segment %q missing lane %+v", sg.entry.File, id)
					}
					w := sg.entry.Cols()
					if err := emit(src[r*w*k : (r+1)*w*k]); err != nil {
						return err
					}
				}
			}
			return nil
		})
}
