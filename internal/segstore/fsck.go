package segstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
)

// quarantineDir mirrors the tabstore fsck convention: corrupt (or
// orphaned-by-corruption) segment files are moved here, never deleted,
// preserving the evidence.
const quarantineDir = "quarantine"

// FsckReport describes what Fsck found and repaired in a segment
// directory.
type FsckReport struct {
	Checked      int      // manifest entries examined
	Quarantined  []string // files moved to quarantine/
	TempsRemoved []string // stray atomic-write temporaries deleted
	Problems     []string // human-readable defect descriptions
	Rebuilt      bool     // manifest was rewritten
}

// OK reports whether the directory was fully healthy.
func (r *FsckReport) OK() bool {
	return len(r.Quarantined) == 0 && len(r.TempsRemoved) == 0 && len(r.Problems) == 0
}

// Fsck deep-verifies the segment directory: every manifest entry's file
// must exist, match its recorded size and whole-file CRC32C, carry a
// parseable self-consistent header agreeing with the entry and a whole
// trailer, and every lane blob must match its per-lane CRC there. A
// segment of another format version is none of that: the directory was
// written by another build, so it is listed as a version problem and
// left exactly as it is (Open refuses the directory by name; segments
// are derived data, removed to rebuild). Defective segments are moved
// to quarantine/ and — because the live set must tile the window
// contiguously — every segment after the first hole is quarantined too
// (its bytes are preserved; its columns fall back to WAL replay). An
// unreadable manifest is rebuilt from the surviving segment headers.
// The repaired manifest is written atomically. Fsck itself only errors
// on I/O trouble, never on corruption.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{}
	temps, err := atomicio.CleanTemps(dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: fsck: %w", err)
	}
	rep.TempsRemoved = temps

	man, err := readManifest(dir)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return rep, nil // no segment store here; nothing to check
	default:
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest: %v", err))
		m, rerr := rebuildManifest(dir, rep)
		if rerr != nil {
			return nil, rerr
		}
		man = m
		rep.Rebuilt = true
	}

	keep := man.Segments[:0:0]
	broken := false
	for _, e := range man.Segments {
		rep.Checked++
		if broken {
			// Everything after the first hole is orphaned: the live set
			// must stay contiguous from BaseCol.
			if err := quarantine(dir, e.File, rep); err != nil {
				return nil, err
			}
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("segment %q: quarantined (follows a hole in the column tiling)", e.File))
			continue
		}
		defect, err := verifySegment(dir, e)
		var ve *versionError
		if errors.As(err, &ve) {
			rep.Problems = append(rep.Problems, versionProblem(e.File, ve, dir))
			keep = append(keep, e)
			continue
		}
		if err != nil {
			return nil, err
		}
		if defect == "" {
			keep = append(keep, e)
			continue
		}
		broken = true
		rep.Problems = append(rep.Problems, fmt.Sprintf("segment %q: %s", e.File, defect))
		if defect != "missing" {
			if err := quarantine(dir, e.File, rep); err != nil {
				return nil, err
			}
		}
	}
	if len(keep) != len(man.Segments) || rep.Rebuilt {
		man.Segments = keep
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
		rep.Rebuilt = true
	}
	return rep, nil
}

// versionProblem words the report line of an intact segment file of
// another format version.
func versionProblem(file string, ve *versionError, dir string) string {
	return fmt.Sprintf("segment %q: %v — a version problem, not corruption: remove %s to rebuild the segments from the store's day files",
		file, ve, dir)
}

// verifySegment fully checks one manifest entry. The returned string
// describes the defect ("" when healthy); the error is for I/O trouble
// and for an intact file of another format version (*versionError).
func verifySegment(dir string, e Entry) (string, error) {
	path := filepath.Join(dir, e.File)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return "missing", nil
	}
	if err != nil {
		return "", fmt.Errorf("segstore: fsck: reading %s: %w", e.File, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", err
	}
	if fi.Size() != e.Bytes {
		return fmt.Sprintf("file is %d bytes, manifest says %d", fi.Size(), e.Bytes), nil
	}
	crc := crc32.New(crcTable)
	if _, err := io.Copy(crc, f); err != nil {
		return "", err
	}
	if got := crc.Sum32(); got != e.CRC {
		return fmt.Sprintf("whole-file CRC32C %08x, manifest says %08x", got, e.CRC), nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	h, err := parseSegHeader(f)
	var ve *versionError
	if errors.As(err, &ve) {
		return "", ve // the whole-file CRC held: written so by another build
	}
	if err != nil {
		return fmt.Sprintf("undecodable header: %v", err), nil
	}
	if h.Level != e.Level || h.Seq != e.Seq || h.T0 != e.T0 || h.T1 != e.T1 {
		return fmt.Sprintf("header (L%d seq %d [%d,%d)) disagrees with manifest (L%d seq %d [%d,%d))",
			h.Level, h.Seq, h.T0, h.T1, e.Level, e.Seq, e.T0, e.T1), nil
	}
	if fi.Size() != h.size() {
		return fmt.Sprintf("file is %d bytes, header describes %d", fi.Size(), h.size()), nil
	}
	crcs, err := parseSegTrailer(io.NewSectionReader(f, h.trailerOff(), int64(trailerLen(len(h.Lanes)))), len(h.Lanes))
	if err != nil {
		return fmt.Sprintf("undecodable trailer: %v", err), nil
	}
	// Per-lane payload CRCs — the deep check restart skips.
	buf := make([]byte, 1<<20)
	for n, lm := range h.Lanes {
		if defect, err := verifyLane(f, lm, crcs[n], buf); defect != "" || err != nil {
			return defect, err
		}
	}
	return "", nil
}

func verifyLane(f *os.File, lm laneMeta, want uint32, buf []byte) (string, error) {
	var crc uint32
	remaining := lm.bytes()
	off := lm.Off
	for remaining > 0 {
		n := int64(len(buf))
		if n > remaining {
			n = remaining
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return "", err
		}
		crc = crc32.Update(crc, crcTable, buf[:n])
		off += n
		remaining -= n
	}
	if crc != want {
		return fmt.Sprintf("lane %+v payload CRC32C %08x, trailer says %08x", lm.ID, crc, want), nil
	}
	return "", nil
}

// quarantine moves file into quarantine/, deduplicating the target name
// like the tabstore fsck does.
func quarantine(dir, file string, rep *FsckReport) error {
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("segstore: fsck: %w", err)
	}
	dst := filepath.Join(qdir, file)
	for n := 1; ; n++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", file, n))
	}
	if err := os.Rename(filepath.Join(dir, file), dst); err != nil {
		return fmt.Errorf("segstore: quarantining %s: %w", file, err)
	}
	rep.Quarantined = append(rep.Quarantined, file)
	return nil
}

// rebuildManifest reconstructs a manifest from segment file headers
// when the manifest itself is unreadable: surviving files are read,
// internally validated, ordered by column range, and the longest
// contiguous chain from the lowest starting column becomes the live
// set. Files that do not parse, disagree with the majority parameters,
// or fall outside the chain are quarantined.
func rebuildManifest(dir string, rep *FsckReport) (*manifest, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		h    *segHeader
		size int64
		crc  uint32
		name string
	}
	var cands []cand
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !isSegmentName(name) {
			continue
		}
		h, size, err := readSegHeaderFile(filepath.Join(dir, name))
		var ve *versionError
		if errors.As(err, &ve) {
			rep.Problems = append(rep.Problems, versionProblem(name, ve, dir))
			continue
		}
		if err != nil || size != h.size() {
			rep.Problems = append(rep.Problems, fmt.Sprintf("segment %q: unreadable during rebuild", name))
			if qerr := quarantine(dir, name, rep); qerr != nil {
				return nil, qerr
			}
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		crc := crc32.New(crcTable)
		_, cerr := io.Copy(crc, f)
		f.Close()
		if cerr != nil {
			return nil, cerr
		}
		cands = append(cands, cand{h: h, size: size, crc: crc.Sum32(), name: name})
	}
	if len(cands) == 0 {
		return nil, errors.New("segstore: fsck: manifest unreadable and no segment files to rebuild from")
	}
	params := cands[0].h.Params
	sort.Slice(cands, func(a, b int) bool { return cands[a].h.T0 < cands[b].h.T0 })
	m := &manifest{Version: 1, Params: toManifestParams(params)}
	var maxSeq uint64
	at := -1
	for _, c := range cands {
		ok := c.h.Params == params && (at == -1 || c.h.T0 == at)
		if !ok {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("segment %q: outside rebuilt chain ([%d,%d))", c.name, c.h.T0, c.h.T1))
			if err := quarantine(dir, c.name, rep); err != nil {
				return nil, err
			}
			continue
		}
		if at == -1 {
			m.BaseCol = c.h.T0
		}
		at = c.h.T1
		if c.h.Seq > maxSeq {
			maxSeq = c.h.Seq
		}
		m.Segments = append(m.Segments, Entry{File: c.name, Level: c.h.Level, Seq: c.h.Seq,
			T0: c.h.T0, T1: c.h.T1, CRC: c.crc, Bytes: c.size})
	}
	m.NextSeq = maxSeq + 1
	return m, nil
}

// SegmentInfo is one row of List: a segment's manifest entry plus its
// verified state and byte accounting for the tabmine-store segments
// subcommand.
type SegmentInfo struct {
	Entry
	// CRCOK reports whether the whole-file CRC matched the manifest.
	CRCOK bool
	// MappedBytes is how many bytes serving would map for this segment
	// (the full file; lane payloads plus header and padding).
	MappedBytes int64
	// PayloadBytes is the lane payload portion (the float data itself).
	PayloadBytes int64
}

// Listing summarizes a segment directory for tooling.
type Listing struct {
	BaseCol   int
	SealedCol int
	Segments  []SegmentInfo
}

// List reads dir's manifest and verifies each segment's whole-file CRC
// (an offline deep read — tooling, not the serving path).
func List(dir string) (*Listing, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	l := &Listing{BaseCol: man.BaseCol, SealedCol: man.sealedCol()}
	for _, e := range man.Segments {
		info := SegmentInfo{Entry: e}
		path := filepath.Join(dir, e.File)
		if f, err := os.Open(path); err == nil {
			crc := crc32.New(crcTable)
			if _, err := io.Copy(crc, f); err == nil {
				info.CRCOK = crc.Sum32() == e.CRC
			}
			if fi, err := f.Stat(); err == nil {
				info.MappedBytes = fi.Size()
			}
			if _, err := f.Seek(0, io.SeekStart); err == nil {
				if h, err := parseSegHeader(f); err == nil {
					for _, lm := range h.Lanes {
						info.PayloadBytes += lm.bytes()
					}
				}
			}
			f.Close()
		}
		l.Segments = append(l.Segments, info)
	}
	return l, nil
}
