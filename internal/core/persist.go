package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/atomicio"
)

// Persistence for precomputed sketches. The paper's fastest scenario
// assumes "sketches have been precomputed"; for that to survive process
// restarts (the preprocessing is the expensive step) pools and plane sets
// serialize to a compact binary format. Random matrices are NOT stored —
// they regenerate deterministically from the recorded (p, k, dims, seed,
// estimator) parameters — so a saved pool is just parameters plus the
// correlation payloads.
//
// # Format (version 5)
//
// A snapshot is a 4-byte magic, a little-endian u32 version, and a
// sequence of framed sections. Each section is
//
//	u64 payload length | payload bytes | u32 CRC32C(payload)
//
// so truncation and bit-rot are detected at load time instead of
// silently corrupting every subsequent distance estimate — the sketch
// state is a long-lived summary assumed durable across sessions. The
// sections are: one header (parameters) and one lane payload per plane
// set, little-endian float32 (LaneBytes a lane, see PlaneSet). The pool
// header carries the panel width and the high-water base column (see
// Pool.HighWaterCols) after the sketch parameters. One version is read
// and written; any other version number is rejected. Version 5 is
// version 4 with float32 payloads in place of float64: widening an older
// file's lanes on load would be a second reader and rounding them a
// pool no build produces bit for bit, so the older file is refused, not
// converted.

var (
	planeMagic = [4]byte{'S', 'K', 'P', 'L'}
	poolMagic  = [4]byte{'S', 'K', 'P', 'O'}
)

const persistVersion = 5

// ErrChecksum reports a corrupted snapshot frame: a CRC32C mismatch
// or a section length that contradicts the snapshot's own parameters.
var ErrChecksum = errors.New("core: snapshot checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotFloats bounds the element count of any single allocation
// made while loading a snapshot (lane payloads, LaneBytes an element, and
// regenerated float64 random matrices), so a corrupt header cannot
// request an absurd or int-overflowing make. It is a variable only so
// fuzz tests can lower it; production code never mutates it.
var maxSnapshotFloats int64 = 1 << 31

// checkFloats validates that a rows×cols×k float payload (or matrix set)
// is positive, overflow-free, and within maxSnapshotFloats, returning
// the element count.
func checkFloats(rows, cols, k int) (int, error) {
	if rows <= 0 || cols <= 0 || k <= 0 {
		return 0, fmt.Errorf("core: implausible snapshot payload dims %dx%dx%d", rows, cols, k)
	}
	n := int64(rows) * int64(cols)
	if n > maxSnapshotFloats {
		return 0, fmt.Errorf("core: snapshot payload %dx%d exceeds %d floats", rows, cols, maxSnapshotFloats)
	}
	n *= int64(k)
	if n > maxSnapshotFloats {
		return 0, fmt.Errorf("core: snapshot payload %dx%dx%d exceeds %d floats", rows, cols, k, maxSnapshotFloats)
	}
	return int(n), nil
}

type leWriter struct {
	w   *bufio.Writer
	err error
}

func (lw *leWriter) u32(v uint32) {
	if lw.err == nil {
		lw.err = binary.Write(lw.w, binary.LittleEndian, v)
	}
}

func (lw *leWriter) u64(v uint64) {
	if lw.err == nil {
		lw.err = binary.Write(lw.w, binary.LittleEndian, v)
	}
}

func (lw *leWriter) f64(v float64) { lw.u64(math.Float64bits(v)) }

// framedBytes writes one section from an in-memory payload (headers).
func (lw *leWriter) framedBytes(payload []byte) {
	lw.u64(uint64(len(payload)))
	if lw.err == nil {
		if _, err := lw.w.Write(payload); err != nil {
			lw.err = err
			return
		}
	}
	lw.u32(crc32.Checksum(payload, crcTable))
}

// framedFloats streams one lane section, computing the CRC on the
// fly so large payloads are never buffered twice.
func (lw *leWriter) framedFloats(vs []float32) {
	lw.u64(uint64(len(vs)) * LaneBytes)
	if lw.err != nil {
		return
	}
	crc := crc32.New(crcTable)
	var buf [LaneBytes]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		crc.Write(buf[:])
		if _, err := lw.w.Write(buf[:]); err != nil {
			lw.err = err
			return
		}
	}
	lw.u32(crc.Sum32())
}

type leReader struct {
	r   *bufio.Reader
	err error
}

func (lr *leReader) u32() uint32 {
	var v uint32
	if lr.err == nil {
		lr.err = binary.Read(lr.r, binary.LittleEndian, &v)
	}
	return v
}

func (lr *leReader) u64() uint64 {
	var v uint64
	if lr.err == nil {
		lr.err = binary.Read(lr.r, binary.LittleEndian, &v)
	}
	return v
}

func (lr *leReader) f64() float64 { return math.Float64frombits(lr.u64()) }

// floatsN reads n little-endian lanes, allocating incrementally in
// chunks so a header claiming a huge payload fails at EOF having
// committed memory proportional to the bytes actually present, not to
// the claim. Every byte read is fed to crc.
func (lr *leReader) floatsN(n int, crc hash.Hash32) []float32 {
	if lr.err != nil {
		return nil
	}
	const chunkFloats = 1 << 15
	buf := make([]byte, LaneBytes*min(n, chunkFloats))
	out := make([]float32, 0, min(n, chunkFloats))
	for len(out) < n {
		m := min(n-len(out), chunkFloats)
		b := buf[:LaneBytes*m]
		if _, err := io.ReadFull(lr.r, b); err != nil {
			lr.err = err
			return nil
		}
		crc.Write(b)
		for i := 0; i < m; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[LaneBytes*i:])))
		}
	}
	return out
}

// framedBytes reads one section of at most maxLen bytes, verifying
// its CRC32C.
func (lr *leReader) framedBytes(maxLen int) []byte {
	n := lr.u64()
	if lr.err != nil {
		return nil
	}
	if n > uint64(maxLen) {
		lr.err = fmt.Errorf("core: header section of %d bytes exceeds %d: %w", n, maxLen, ErrChecksum)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(lr.r, buf); err != nil {
		lr.err = err
		return nil
	}
	got := crc32.Checksum(buf, crcTable)
	want := lr.u32()
	if lr.err != nil {
		return nil
	}
	if got != want {
		lr.err = fmt.Errorf("core: header CRC32C %08x, stored %08x: %w", got, want, ErrChecksum)
		return nil
	}
	return buf
}

// framedFloats reads a lane section whose length must equal n lanes,
// verifying its CRC32C.
func (lr *leReader) framedFloats(n int) []float32 {
	ln := lr.u64()
	if lr.err != nil {
		return nil
	}
	if ln != uint64(n)*LaneBytes {
		lr.err = fmt.Errorf("core: payload section of %d bytes, want %d: %w", ln, n*LaneBytes, ErrChecksum)
		return nil
	}
	crc := crc32.New(crcTable)
	out := lr.floatsN(n, crc)
	if lr.err != nil {
		return nil
	}
	got := crc.Sum32()
	want := lr.u32()
	if lr.err != nil {
		return nil
	}
	if got != want {
		lr.err = fmt.Errorf("core: payload CRC32C %08x, stored %08x: %w", got, want, ErrChecksum)
		return nil
	}
	return out
}

// headerBytes renders a small header section through fn into memory.
func headerBytes(fn func(lw *leWriter)) ([]byte, error) {
	var b bytes.Buffer
	lw := &leWriter{w: bufio.NewWriter(&b)}
	fn(lw)
	if lw.err == nil {
		lw.err = lw.w.Flush()
	}
	if lw.err != nil {
		return nil, lw.err
	}
	return b.Bytes(), nil
}

// maxHeaderBytes bounds a header section; real headers are tens of
// bytes, so anything larger is corruption.
const maxHeaderBytes = 4096

// sketcherParams serializes what is needed to rebuild a Sketcher.
func writeSketcherParams(lw *leWriter, sk *Sketcher) {
	lw.f64(sk.p)
	lw.u64(uint64(sk.k))
	lw.u64(uint64(sk.rows))
	lw.u64(uint64(sk.cols))
	lw.u64(sk.seed)
	lw.u32(uint32(sk.estimator))
}

func readSketcher(lr *leReader) (*Sketcher, error) {
	p := lr.f64()
	k := int(lr.u64())
	rows := int(lr.u64())
	cols := int(lr.u64())
	seed := lr.u64()
	est := Estimator(lr.u32())
	if lr.err != nil {
		return nil, lr.err
	}
	if k <= 0 || k > 1<<24 || rows <= 0 || cols <= 0 || rows > 1<<24 || cols > 1<<24 {
		return nil, fmt.Errorf("core: implausible sketcher params k=%d dims=%dx%d", k, rows, cols)
	}
	// Regenerating the random matrices allocates k·rows·cols floats;
	// bound the product (the individual caps above still admit an
	// int-overflowing or multi-GiB make from a corrupt header).
	if _, err := checkFloats(rows, cols, k); err != nil {
		return nil, err
	}
	return NewSketcher(p, k, rows, cols, seed, est)
}

// SavePlaneSet writes ps (parameters + position-major payload) in the
// checksummed format. Plane sets with sealed (externally owned) bands are
// rejected, as in SavePool.
func SavePlaneSet(w io.Writer, ps *PlaneSet) error {
	if len(ps.bands) > 1 {
		return errors.New("core: plane sets with sealed bands persist through the segment store, not SavePlaneSet")
	}
	bw := bufio.NewWriter(w)
	lw := &leWriter{w: bw}
	if _, err := bw.Write(planeMagic[:]); err != nil {
		return fmt.Errorf("core: writing plane set: %w", err)
	}
	lw.u32(persistVersion)
	hdr, err := headerBytes(func(hw *leWriter) {
		writeSketcherParams(hw, ps.sk)
		hw.u64(uint64(ps.rows))
		hw.u64(uint64(ps.cols))
	})
	if err != nil {
		return fmt.Errorf("core: writing plane set: %w", err)
	}
	lw.framedBytes(hdr)
	lw.framedFloats(ps.bands[0].data)
	if lw.err != nil {
		return fmt.Errorf("core: writing plane set: %w", lw.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: writing plane set: %w", err)
	}
	return nil
}

// planeSetShell parses the plane-set header fields and returns the empty
// PlaneSet plus its expected payload length.
func planeSetShell(lr *leReader) (*PlaneSet, int, error) {
	sk, err := readSketcher(lr)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reading plane set: %w", err)
	}
	rows := int(lr.u64())
	cols := int(lr.u64())
	if lr.err != nil {
		return nil, 0, fmt.Errorf("core: reading plane set: %w", lr.err)
	}
	if rows <= 0 || cols <= 0 || rows > 1<<24 || cols > 1<<24 {
		return nil, 0, fmt.Errorf("core: implausible plane-set dims %dx%d", rows, cols)
	}
	n, err := checkFloats(rows, cols, sk.k)
	if err != nil {
		return nil, 0, err
	}
	return &PlaneSet{sk: sk, rows: rows, cols: cols}, n, nil
}

// LoadPlaneSet reads a plane set saved by SavePlaneSet, regenerating its
// Sketcher from the stored parameters.
func LoadPlaneSet(r io.Reader) (*PlaneSet, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading plane set: %w", err)
	}
	if magic != planeMagic {
		return nil, fmt.Errorf("core: bad plane-set magic %q", magic[:])
	}
	lr := &leReader{r: br}
	v := lr.u32()
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading plane set: %w", lr.err)
	}
	if v != persistVersion {
		return nil, fmt.Errorf("core: unsupported plane-set version %d", v)
	}
	hdr := lr.framedBytes(maxHeaderBytes)
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading plane set header: %w", lr.err)
	}
	hlr := &leReader{r: bufio.NewReader(bytes.NewReader(hdr))}
	ps, n, err := planeSetShell(hlr)
	if err != nil {
		return nil, err
	}
	data := lr.framedFloats(n)
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading plane set payload: %w", lr.err)
	}
	ps.bands = []laneBand{{c1: ps.cols, stride: ps.cols * ps.sk.k, data: data}}
	return ps, nil
}

// SavePool writes a pool (parameters + every plane set payload) in the
// checksummed format. Sizes are written in sorted key order so output is
// deterministic. Pools with sealed bands are rejected: their sealed lanes
// already live in immutable segment files (internal/segstore), which is
// the persistence path of a served store.
func SavePool(w io.Writer, pl *Pool) error {
	if pl.sealed > 0 {
		return errors.New("core: pools with sealed bands persist through the segment store, not SavePool")
	}
	bw := bufio.NewWriter(w)
	lw := &leWriter{w: bw}
	if _, err := bw.Write(poolMagic[:]); err != nil {
		return fmt.Errorf("core: writing pool: %w", err)
	}
	lw.u32(persistVersion)
	hdr, err := headerBytes(func(hw *leWriter) { writePoolParams(hw, pl) })
	if err != nil {
		return fmt.Errorf("core: writing pool: %w", err)
	}
	lw.framedBytes(hdr)
	for _, key := range sortedPoolKeys(pl) {
		for _, ps := range pl.entries[key] {
			lw.framedFloats(ps.bands[0].data)
		}
	}
	if lw.err != nil {
		return fmt.Errorf("core: writing pool: %w", lw.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: writing pool: %w", err)
	}
	return nil
}

func writePoolParams(lw *leWriter, pl *Pool) {
	lw.f64(pl.p)
	lw.u64(uint64(pl.k))
	lw.u64(uint64(pl.rows))
	lw.u64(uint64(pl.cols))
	lw.u64(pl.seed)
	lw.u32(uint32(pl.opts.MinLogRows))
	lw.u32(uint32(pl.opts.MaxLogRows))
	lw.u32(uint32(pl.opts.MinLogCols))
	lw.u32(uint32(pl.opts.MaxLogCols))
	lw.u32(uint32(pl.opts.Estimator))
	// Streaming-ingest metadata.
	lw.u32(uint32(pl.opts.PanelCols))
	lw.u64(uint64(pl.baseCol))
}

func sortedPoolKeys(pl *Pool) [][2]int {
	keys := make([][2]int, 0, len(pl.entries))
	for key := range pl.entries {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return keys
}

// poolShell parses the pool header fields into an empty Pool, validating
// them.
func poolShell(lr *leReader) (*Pool, error) {
	pl := &Pool{entries: make(map[[2]int][compoundSets]*PlaneSet)}
	pl.p = lr.f64()
	pl.k = int(lr.u64())
	pl.rows = int(lr.u64())
	pl.cols = int(lr.u64())
	pl.seed = lr.u64()
	pl.opts.MinLogRows = int(lr.u32())
	pl.opts.MaxLogRows = int(lr.u32())
	pl.opts.MinLogCols = int(lr.u32())
	pl.opts.MaxLogCols = int(lr.u32())
	pl.opts.Estimator = Estimator(lr.u32())
	pl.opts.PanelCols = int(lr.u32())
	pl.baseCol = int(lr.u64())
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading pool header: %w", lr.err)
	}
	if pl.k <= 0 || pl.k > 1<<24 || pl.rows <= 0 || pl.cols <= 0 ||
		pl.rows > 1<<24 || pl.cols > 1<<24 ||
		pl.opts.MinLogRows < 0 || pl.opts.MinLogRows > pl.opts.MaxLogRows ||
		pl.opts.MinLogCols < 0 || pl.opts.MinLogCols > pl.opts.MaxLogCols ||
		1<<pl.opts.MaxLogRows > pl.rows || 1<<pl.opts.MaxLogCols > pl.cols ||
		pl.opts.PanelCols < 0 || pl.opts.PanelCols > 1<<24 ||
		pl.baseCol < 0 || pl.baseCol > 1<<40 {
		return nil, fmt.Errorf("core: implausible pool header %+v (%dx%d, k=%d, base=%d)",
			pl.opts, pl.rows, pl.cols, pl.k, pl.baseCol)
	}
	return pl, nil
}

// loadPoolEntries rebuilds every plane set: the sketcher regenerates
// from the recorded seed derivation, the payload is the next framed
// float section of lr.
func loadPoolEntries(pl *Pool, lr *leReader) error {
	for i := pl.opts.MinLogRows; i <= pl.opts.MaxLogRows; i++ {
		for j := pl.opts.MinLogCols; j <= pl.opts.MaxLogCols; j++ {
			var sets [compoundSets]*PlaneSet
			for s := 0; s < compoundSets; s++ {
				// Bound the matrix regeneration before NewSketcher commits
				// a k·2^i·2^j allocation on a corrupt header's say-so.
				if _, err := checkFloats(1<<i, 1<<j, pl.k); err != nil {
					return err
				}
				sk, err := NewSketcher(pl.p, pl.k, 1<<i, 1<<j,
					poolSketcherSeed(pl.seed, i, j, s), pl.opts.Estimator)
				if err != nil {
					return fmt.Errorf("core: rebuilding pool sketcher: %w", err)
				}
				ps := &PlaneSet{
					sk:   sk,
					rows: pl.rows - 1<<i + 1,
					cols: pl.cols - 1<<j + 1,
				}
				n, err := checkFloats(ps.rows, ps.cols, pl.k)
				if err != nil {
					return err
				}
				data := lr.framedFloats(n)
				if lr.err != nil {
					return fmt.Errorf("core: reading pool payload: %w", lr.err)
				}
				ps.bands = []laneBand{{c1: ps.cols, stride: ps.cols * ps.sk.k, data: data}}
				sets[s] = ps
			}
			pl.entries[[2]int{i, j}] = sets
		}
	}
	return nil
}

// LoadPool reads a pool saved by SavePool, rebuilding each Sketcher from
// the recorded seed derivation and restoring the correlation payloads
// without recomputation.
func LoadPool(r io.Reader) (*Pool, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading pool: %w", err)
	}
	if magic != poolMagic {
		return nil, fmt.Errorf("core: bad pool magic %q", magic[:])
	}
	lr := &leReader{r: br}
	v := lr.u32()
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading pool: %w", lr.err)
	}
	if v != persistVersion {
		return nil, fmt.Errorf("core: unsupported pool version %d", v)
	}
	hdr := lr.framedBytes(maxHeaderBytes)
	if lr.err != nil {
		return nil, fmt.Errorf("core: reading pool header: %w", lr.err)
	}
	pl, err := poolShell(&leReader{r: bufio.NewReader(bytes.NewReader(hdr))})
	if err != nil {
		return nil, err
	}
	if err := loadPoolEntries(pl, lr); err != nil {
		return nil, err
	}
	return pl, nil
}

// SavePoolFile writes pl to path crash-safely: the bytes stream to a
// temporary file in the same directory which is fsynced and atomically
// renamed over path, so a crash or I/O error mid-save leaves a previous
// snapshot at path intact and never a torn file.
func SavePoolFile(path string, pl *Pool) error {
	return atomicio.WriteFile(path, func(w io.Writer) error { return SavePool(w, pl) })
}

// LoadPoolFile reads a pool snapshot from path.
func LoadPoolFile(path string) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	pl, err := LoadPool(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pl, nil
}

// SavePlaneSetFile writes ps to path with the same crash-safety as
// SavePoolFile.
func SavePlaneSetFile(path string, ps *PlaneSet) error {
	return atomicio.WriteFile(path, func(w io.Writer) error { return SavePlaneSet(w, ps) })
}

// LoadPlaneSetFile reads a plane-set snapshot from path.
func LoadPlaneSetFile(path string) (*PlaneSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	ps, err := LoadPlaneSet(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ps, nil
}
