// Package tabstore implements a simple day-partitioned table store: one
// binary table file per day plus a JSON manifest, mirroring how the
// paper's data arrives ("the number of calls collected in intervals of 10
// minutes over the day ... We stitched consecutive days to obtain data
// sets of various sizes") and the flat-file warehousing (Daytona-style)
// it sits in.
//
// All days of a store share the same row count (the station axis); a
// contiguous range of days loads as one stitched table ready for tiling
// and sketching.
package tabstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/tabfile"
	"repro/internal/table"
)

const manifestName = "manifest.json"

// quarantineDir is where Fsck moves corrupt day files, preserving the
// evidence instead of deleting it.
const quarantineDir = "quarantine"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrManifestChanged is wrapped by the error AppendDay returns when the
// manifest on disk is not the one this handle last read or wrote:
// another writer appended behind its back. The server answers it with
// 409 Conflict.
var ErrManifestChanged = errors.New("manifest changed underneath this store (another writer?)")

type dayEntry struct {
	Label      string `json:"label"`
	File       string `json:"file"`
	Cols       int    `json:"cols"`
	Compressed bool   `json:"compressed"`
	// CRC32C of the day file's full byte contents, recorded at append
	// time. 0 means "not recorded" (a file from before checksums were
	// added); Fsck skips the checksum comparison for such days.
	CRC32C uint32 `json:"crc32c,omitempty"`
}

type manifest struct {
	Version int        `json:"version"`
	Rows    int        `json:"rows"` // 0 until the first day is appended
	Days    []dayEntry `json:"days"`
}

// SegmentsDirName is the store subdirectory segment-mode serving keeps
// its segment files in (see internal/segstore); Open sweeps its stray
// temps and tabmine-store's fsck and segments subcommands look there.
const SegmentsDirName = "segments"

// Store is a directory-backed, day-partitioned table store. A store has
// one writer: AppendDay refuses to write over a manifest another handle
// has changed since this one last read or wrote it.
type Store struct {
	dir string
	m   manifest
	// raw is the manifest as this handle last read or wrote it.
	raw []byte
	// offs[i] is the absolute column day i starts at, offs[len(Days)] the
	// total: the WAL never drops a day, so every stream-length question is
	// answered from here instead of by a walk over the manifest. Rebuilt by
	// indexDays, extended by AppendDay.
	offs []int
}

// indexDays rebuilds offs from m.Days.
func (s *Store) indexDays() {
	s.offs = s.offs[:1]
	for _, d := range s.m.Days {
		s.offs = append(s.offs, s.offs[len(s.offs)-1]+d.Cols)
	}
}

// SegmentsDir returns the store's segment subdirectory path (which may
// not exist; only segment-mode serving creates it).
func (s *Store) SegmentsDir() string { return filepath.Join(s.dir, SegmentsDirName) }

func dirExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

// Open opens (or initializes) a store rooted at dir, which must exist.
// Stray temporary files from an interrupted atomic write are removed —
// they were never referenced by the manifest, so dropping them restores
// the pre-write state.
func Open(dir string) (*Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("tabstore: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("tabstore: %s is not a directory", dir)
	}
	if _, err := atomicio.CleanTemps(dir); err != nil {
		return nil, fmt.Errorf("tabstore: %w", err)
	}
	// Segment-mode serving keeps its mmap-backed segment files in a
	// segments/ subdirectory; a crash mid-write leaves its temps there.
	if segDir := filepath.Join(dir, SegmentsDirName); dirExists(segDir) {
		if _, err := atomicio.CleanTemps(segDir); err != nil {
			return nil, fmt.Errorf("tabstore: %w", err)
		}
	}
	s := &Store{dir: dir, m: manifest{Version: 1}, offs: []int{0}}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, s.writeManifest()
	}
	if err != nil {
		return nil, fmt.Errorf("tabstore: reading manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &s.m); err != nil {
		return nil, fmt.Errorf("tabstore: parsing manifest: %w", err)
	}
	s.raw = raw
	if s.m.Version != 1 {
		return nil, fmt.Errorf("tabstore: unsupported manifest version %d", s.m.Version)
	}
	if s.m.Rows < 0 {
		return nil, fmt.Errorf("tabstore: manifest claims %d rows", s.m.Rows)
	}
	if len(s.m.Days) > 0 && s.m.Rows == 0 {
		return nil, fmt.Errorf("tabstore: manifest has %d days but no row count", len(s.m.Days))
	}
	for i, d := range s.m.Days {
		if d.Cols <= 0 {
			return nil, fmt.Errorf("tabstore: manifest day %d claims %d cols", i, d.Cols)
		}
		// Day files live directly in the store directory; a manifest
		// naming anything else (subdirs, "..", absolute paths) would let
		// fsck quarantine-rename files outside the store.
		if d.File == "" || d.File != filepath.Base(d.File) || d.File == "." || d.File == ".." {
			return nil, fmt.Errorf("tabstore: manifest day %d has invalid file name %q", i, d.File)
		}
	}
	s.indexDays()
	return s, nil
}

func (s *Store) writeManifest() error {
	raw, err := json.MarshalIndent(&s.m, "", "  ")
	if err != nil {
		return fmt.Errorf("tabstore: encoding manifest: %w", err)
	}
	err = atomicio.WriteFile(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return fmt.Errorf("tabstore: writing manifest: %w", err)
	}
	s.raw = raw
	return nil
}

// Rows returns the station-axis size shared by all days (0 when empty).
func (s *Store) Rows() int { return s.m.Rows }

// NumDays returns how many days the store holds.
func (s *Store) NumDays() int { return len(s.m.Days) }

// Labels returns the day labels in append order.
func (s *Store) Labels() []string {
	out := make([]string, len(s.m.Days))
	for i, d := range s.m.Days {
		out[i] = d.Label
	}
	return out
}

// AppendDay persists t as the next day under the given label. The first
// appended day fixes the store's row count; later days must match it.
//
// The append is crash-safe: the day file is written atomically (temp +
// fsync + rename) and the manifest — itself replaced atomically — is
// only updated after the day file is durable, so a crash at any point
// leaves the store either without the new day or with it complete,
// never referencing a torn file. The file's CRC32C is recorded in the
// manifest for fsck.
//
// A manifest on disk that is not the one this handle last read or wrote
// means another writer appended behind this handle's back; rewriting it
// from this handle's copy would drop that writer's days, so AppendDay
// refuses with an error wrapping ErrManifestChanged and writes nothing.
func (s *Store) AppendDay(label string, t *table.Table, compress bool) error {
	if label == "" {
		return fmt.Errorf("tabstore: empty day label")
	}
	onDisk, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return fmt.Errorf("tabstore: reading manifest: %w", err)
	}
	if !bytes.Equal(onDisk, s.raw) {
		return fmt.Errorf("tabstore: %w; reopen it", ErrManifestChanged)
	}
	for _, d := range s.m.Days {
		if d.Label == label {
			return fmt.Errorf("tabstore: day %q already exists", label)
		}
	}
	if s.m.Rows == 0 {
		s.m.Rows = t.Rows()
	} else if t.Rows() != s.m.Rows {
		return fmt.Errorf("tabstore: day has %d rows, store has %d", t.Rows(), s.m.Rows)
	}
	file := s.nextDayFile()
	crc := crc32.New(crcTable)
	err = atomicio.WriteFile(filepath.Join(s.dir, file), func(w io.Writer) error {
		// The checksum hashes exactly the bytes that reach the file.
		return tabfile.Write(io.MultiWriter(w, crc), t, compress)
	})
	if err != nil {
		return err
	}
	s.m.Days = append(s.m.Days, dayEntry{
		Label: label, File: file, Cols: t.Cols(), Compressed: compress,
		CRC32C: crc.Sum32(),
	})
	if err := s.writeManifest(); err != nil {
		// Roll the in-memory state back so the store stays consistent with
		// the on-disk manifest.
		s.m.Days = s.m.Days[:len(s.m.Days)-1]
		return err
	}
	s.offs = append(s.offs, s.offs[len(s.offs)-1]+t.Cols())
	return nil
}

// nextDayFile picks the first unused day file name. Numbering starts at
// the current day count but skips names still present in the manifest or
// on disk — after an fsck quarantined a middle day, naive numbering from
// len(Days) would collide with a later day's file.
func (s *Store) nextDayFile() string {
	inUse := make(map[string]bool, len(s.m.Days))
	for _, d := range s.m.Days {
		inUse[d.File] = true
	}
	for n := len(s.m.Days); ; n++ {
		name := fmt.Sprintf("day-%04d.tabf", n)
		if inUse[name] {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			continue
		}
		return name
	}
}

// Day loads day i.
func (s *Store) Day(i int) (*table.Table, error) {
	if i < 0 || i >= len(s.m.Days) {
		return nil, fmt.Errorf("tabstore: day %d out of range [0, %d)", i, len(s.m.Days))
	}
	t, err := tabfile.ReadFile(filepath.Join(s.dir, s.m.Days[i].File))
	if err != nil {
		return nil, err
	}
	if t.Rows() != s.m.Rows || t.Cols() != s.m.Days[i].Cols {
		return nil, fmt.Errorf("tabstore: day %d file is %dx%d, manifest says %dx%d",
			i, t.Rows(), t.Cols(), s.m.Rows, s.m.Days[i].Cols)
	}
	return t, nil
}

// FsckReport summarizes what Fsck found and repaired.
type FsckReport struct {
	Checked      int      // day entries examined
	Quarantined  []string // corrupt day files moved to quarantine/ (with reasons in Problems)
	Missing      []string // day files referenced by the manifest but absent
	Problems     []string // human-readable description of each defect found
	TempsRemoved []string // stray temporary files deleted
	Rebuilt      bool     // the manifest was rewritten to drop bad entries
}

// OK reports whether the store was fully healthy (nothing quarantined,
// missing, or cleaned up).
func (r *FsckReport) OK() bool {
	return len(r.Quarantined) == 0 && len(r.Missing) == 0 && len(r.TempsRemoved) == 0
}

// verifyDay fully checks day entry d: the file must exist, match its
// recorded CRC32C byte-for-byte (when recorded), decode as a table, and
// match the manifest's dimensions. The returned string describes the
// defect ("" when healthy); the error is only for I/O trouble reading
// healthy-looking state.
func (s *Store) verifyDay(d dayEntry) (string, error) {
	path := filepath.Join(s.dir, d.File)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "missing", nil
	}
	if err != nil {
		return "", fmt.Errorf("tabstore: reading %s: %w", d.File, err)
	}
	if d.CRC32C != 0 {
		if got := crc32.Checksum(raw, crcTable); got != d.CRC32C {
			return fmt.Sprintf("CRC32C %08x, manifest says %08x", got, d.CRC32C), nil
		}
	}
	t, err := tabfile.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("undecodable: %v", err), nil
	}
	if t.Rows() != s.m.Rows || t.Cols() != d.Cols {
		return fmt.Sprintf("file is %dx%d, manifest says %dx%d",
			t.Rows(), t.Cols(), s.m.Rows, d.Cols), nil
	}
	return "", nil
}

// Fsck verifies every day file against the manifest — existence, CRC32C
// (when recorded), decodability, dimensions — moves corrupt files into
// quarantine/, removes stray temporaries, and rewrites the manifest
// without the bad entries so the store is consistent again. Healthy days
// keep their files and labels; the returned report says exactly what was
// done. Fsck itself only errors on I/O trouble, not on corruption.
func (s *Store) Fsck() (*FsckReport, error) {
	rep := &FsckReport{}
	temps, err := atomicio.CleanTemps(s.dir)
	if err != nil {
		return nil, fmt.Errorf("tabstore: fsck: %w", err)
	}
	rep.TempsRemoved = temps
	keep := s.m.Days[:0:0]
	for _, d := range s.m.Days {
		rep.Checked++
		defect, err := s.verifyDay(d)
		if err != nil {
			return nil, err
		}
		switch {
		case defect == "":
			keep = append(keep, d)
		case defect == "missing":
			rep.Missing = append(rep.Missing, d.File)
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("day %q (%s): file missing", d.Label, d.File))
		default:
			if err := s.quarantine(d.File); err != nil {
				return nil, err
			}
			rep.Quarantined = append(rep.Quarantined, d.File)
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("day %q (%s): %s", d.Label, d.File, defect))
		}
	}
	if len(keep) != len(s.m.Days) {
		s.m.Days = keep
		if len(keep) == 0 {
			// An empty store no longer has a fixed row count; the next
			// append re-establishes it.
			s.m.Rows = 0
		}
		s.indexDays()
		if err := s.writeManifest(); err != nil {
			return nil, err
		}
		rep.Rebuilt = true
	}
	return rep, nil
}

// quarantine moves a corrupt day file into quarantine/, deduplicating
// the target name if a previous fsck already parked one like it.
func (s *Store) quarantine(file string) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("tabstore: fsck: %w", err)
	}
	dst := filepath.Join(qdir, file)
	for n := 1; ; n++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", file, n))
	}
	if err := os.Rename(filepath.Join(s.dir, file), dst); err != nil {
		return fmt.Errorf("tabstore: quarantining %s: %w", file, err)
	}
	return nil
}

// ColsTotal returns the total column count across every day — the
// store-side high-water mark an ingester compares a pool's
// HighWaterCols against to decide what to replay after a restart. O(1).
func (s *Store) ColsTotal() int { return s.offs[len(s.m.Days)] }

// ColOffset returns the absolute column at which day i starts (the sum
// of all earlier days' widths), in O(1). i == NumDays() is allowed and
// returns ColsTotal().
func (s *Store) ColOffset(i int) (int, error) {
	if i < 0 || i > len(s.m.Days) {
		return 0, fmt.Errorf("tabstore: day %d out of range [0, %d]", i, len(s.m.Days))
	}
	return s.offs[i], nil
}

// DayAt returns the day holding absolute column col and the column that
// day starts at, by binary search over the day offsets.
func (s *Store) DayAt(col int) (day, dayStart int, err error) {
	if col < 0 || col >= s.ColsTotal() {
		return 0, 0, fmt.Errorf("tabstore: no day holds column %d of [0, %d)", col, s.ColsTotal())
	}
	// The first day starting past col, minus one (days are never empty).
	day = sort.SearchInts(s.offs[1:], col+1)
	return day, s.offs[day], nil
}

// IterDays loads days [from, to) one at a time in order, calling fn with
// the day index, its label, and its table. Iteration stops at the first
// error (fn's own errors included). The replay path of the streaming
// ingester is built on this: each missing day is applied and released
// before the next is read, so catch-up memory is one day, not the range.
func (s *Store) IterDays(from, to int, fn func(i int, label string, t *table.Table) error) error {
	if from < 0 || to > len(s.m.Days) || from > to {
		return fmt.Errorf("tabstore: range [%d, %d) invalid for %d days", from, to, len(s.m.Days))
	}
	for i := from; i < to; i++ {
		t, err := s.Day(i)
		if err != nil {
			return err
		}
		if err := fn(i, s.m.Days[i].Label, t); err != nil {
			return err
		}
	}
	return nil
}

// LoadRange loads days [from, to) stitched into one table along the time
// axis. Day files stream row by row directly into their column range of
// the destination, so peak memory is the result plus a single row — not
// the result plus a whole-day copy per day (what the old
// load-then-Stitch implementation held).
func (s *Store) LoadRange(from, to int) (*table.Table, error) {
	if from < 0 || to > len(s.m.Days) || from >= to {
		return nil, fmt.Errorf("tabstore: range [%d, %d) invalid for %d days",
			from, to, len(s.m.Days))
	}
	out := table.New(s.m.Rows, s.offs[to]-s.offs[from])
	off := 0
	for i := from; i < to; i++ {
		if err := s.streamDayInto(i, out, off); err != nil {
			return nil, err
		}
		off += s.m.Days[i].Cols
	}
	return out, nil
}

// streamDayInto copies day i into dst's columns [colOff, colOff+cols)
// row by row through a tabfile.RowReader.
func (s *Store) streamDayInto(i int, dst *table.Table, colOff int) error {
	d := s.m.Days[i]
	f, err := os.Open(filepath.Join(s.dir, d.File))
	if err != nil {
		return fmt.Errorf("tabstore: %w", err)
	}
	defer f.Close()
	rr, err := tabfile.NewRowReader(f)
	if err != nil {
		return err
	}
	defer rr.Close()
	rows, cols := rr.Dims()
	if rows != s.m.Rows || cols != d.Cols {
		return fmt.Errorf("tabstore: day %d file is %dx%d, manifest says %dx%d",
			i, rows, cols, s.m.Rows, d.Cols)
	}
	for r := 0; r < rows; r++ {
		cells, err := rr.Next()
		if err != nil {
			return fmt.Errorf("tabstore: day %d: %w", i, err)
		}
		copy(dst.Row(r)[colOff:colOff+cols], cells)
	}
	return nil
}
