// Package segstore is the append-only, log-structured segment store for
// pool lanes: the persistence layer of segment-mode serving. A segment
// is one immutable, CRC32C-framed, page-aligned file holding every
// sketch lane of a contiguous column band of the stream — the sealed
// prefix of a panel-mode pool (see core.NewBandedPool). A small
// manifest (written atomically, fsck-able) names the live segment set
// per level. Serving maps segments read-only and hands the mapped lane
// bytes to core as sealed bands, so queries read them with zero copies;
// restart is O(open): map the manifest's segments, rebuild only the
// unsealed fringe, and serve — no WAL day replay.
//
// Lifecycle is LSM-ish: the ingester seals each drained batch's mature
// columns as a level-0 segment, a compactor merges runs of small
// same-level segments into level-tiered larger ones (immutable in,
// immutable out, atomic manifest swap), and window trimming deletes
// whole leading segments. Old files are unlinked only after the last
// pool/snapshot reference drops (refcounted views), so queries in
// flight never observe an unmapped page.
package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/core"
)

// Segment file layout (version 4, all integers little-endian):
//
//	magic "SKSG" | u32 version
//	u64 headerLen | header payload | u32 CRC32C(payload)
//	zero padding to the first 4096-aligned blob offset
//	lane blobs, each at a 4096-aligned offset, bfloat16 (fft.Lane) LE,
//	row-major, one group of k lanes per stream column of [t0, t1): element
//	(r, e, i) at (r·(t1−t0) + e − t0)·k + i
//	trailer, straight after the last blob:
//	magic "SKST" | u32 laneCount | laneCount × u32 CRC32C(lane blob)
//	| u32 CRC32C(the trailer up to here)
//
// Header payload:
//
//	f64 p | u64 k | u64 rows | u64 seed
//	u32 minLogRows | u32 maxLogRows | u32 minLogCols | u32 maxLogCols
//	u32 estimator | u32 panelCols
//	u32 level | u64 seq | u64 t0 | u64 t1
//	u32 laneCount | laneCount × (u32 i | u32 j | u32 s | u64 off | u64 floats)
//
// t0/t1 are absolute stream columns, and a tile is stored at the column
// it ENDS in: column e of a (2^i)×(2^j) lane's row r is the sketch of
// the tile with top-left corner (r, e − 2^j + 1). Entries whose tile
// would start before stream column 0 are zero; entries whose tile starts
// before the base of a trimmed window are stale and never read. That
// keying came with version 2 (version 1 stored the same shape keyed by a
// tile's first column, so its bytes name different tiles); version 4
// stores the lane element core does, a bfloat16 (fft.Lane,
// core.LaneBytes), where version 3 stored a float32 and version 2 a
// float64. The header's per-lane "floats" is a count of lanes. One
// version is read and written and no reader for another exists.
//
// Lane records are sorted in canonical (i, j, s) order and their sizes
// and offsets follow from the parameters and [t0, t1) alone (layout), so
// the header is written before any lane is read and the per-lane CRCs,
// known only once the lanes have streamed past, go in the trailer: one
// pass over the pool, no lane produced twice. Page-aligned offsets
// guarantee the element alignment the zero-copy lane reinterpretation of
// a mapping needs. Blob bytes are little-endian, which that view and the
// writer's view of a []fft.Lane as bytes assume of the host as well
// (every supported platform is little-endian).

var (
	segMagic     = [4]byte{'S', 'K', 'S', 'G'}
	trailerMagic = [4]byte{'S', 'K', 'S', 'T'}
)

const (
	segVersion   = 4
	segPageAlign = 4096
	// maxHeaderLen bounds the framed header (and the trailer) a reader
	// will buffer; far above any real lane count, far below anything
	// dangerous.
	maxHeaderLen = 1 << 20
	// maxLanes bounds the lane count a trailer may be asked for: more
	// records than a maxHeaderLen header can hold.
	maxLanes = maxHeaderLen / laneRecordLen
	// maxLaneFloats bounds one lane blob (2^44 floats, 64 TiB), so that the
	// offsets of the at most 31·31·4 lanes of a header fit an int64 with
	// room to spare.
	maxLaneFloats = 1 << 44
)

// versionError reports a segment written in another format version:
// a configuration problem (the directory was written by another build),
// not corruption.
type versionError struct{ got uint32 }

func (e *versionError) Error() string {
	return fmt.Sprintf("segstore: segment format version %d, this build reads and writes version %d",
		e.got, segVersion)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Params are the pool parameters a segment set is bound to. Every
// segment of a store must agree with the store's manifest; a mismatch
// is a configuration error, never silently rebuilt.
type Params struct {
	P          float64
	K          int
	Rows       int // table rows
	Seed       uint64
	MinLogRows int
	MaxLogRows int
	MinLogCols int
	MaxLogCols int
	Estimator  core.Estimator
	PanelCols  int
}

// SegAlign returns the column granularity segments are cut at:
// max(PanelCols, 2^MaxLogCols), the panel-grid alignment that keeps
// sealed bytes identical to what a from-scratch build produces.
func (p Params) SegAlign() int {
	a := p.PanelCols
	if b := 1 << p.MaxLogCols; b > a {
		a = b
	}
	return a
}

func (p Params) validate() error {
	if p.K <= 0 || p.K > 1<<24 || p.Rows <= 0 || p.Rows > 1<<24 {
		return fmt.Errorf("segstore: implausible params k=%d rows=%d", p.K, p.Rows)
	}
	if p.MinLogRows < 0 || p.MinLogRows > p.MaxLogRows || p.MaxLogRows > 30 || 1<<p.MaxLogRows > p.Rows ||
		p.MinLogCols < 0 || p.MinLogCols > p.MaxLogCols || p.MaxLogCols > 30 {
		return fmt.Errorf("segstore: invalid dyadic size range %+v", p)
	}
	if p.PanelCols <= 0 || p.PanelCols&(p.PanelCols-1) != 0 {
		return fmt.Errorf("segstore: PanelCols %d must be a positive power of two", p.PanelCols)
	}
	if !(p.P > 0) || math.IsInf(p.P, 0) {
		return fmt.Errorf("segstore: invalid p=%v", p.P)
	}
	return nil
}

// laneRows returns the anchor-row count of lane id's plane.
func (p Params) laneRows(i int) int { return p.Rows - 1<<i + 1 }

// lanes returns the canonical lane order of a pool with these params.
func (p Params) lanes() []core.LaneID {
	var ids []core.LaneID
	for i := p.MinLogRows; i <= p.MaxLogRows; i++ {
		for j := p.MinLogCols; j <= p.MaxLogCols; j++ {
			for s := 0; s < 4; s++ {
				ids = append(ids, core.LaneID{I: i, J: j, S: s})
			}
		}
	}
	return ids
}

// laneMeta is one lane's blob record in a segment header.
type laneMeta struct {
	ID     core.LaneID
	Off    int64
	Floats int64
}

// bytes returns the blob's length in the file.
func (lm laneMeta) bytes() int64 { return lm.Floats * core.LaneBytes }

// segHeader is a parsed segment file header.
type segHeader struct {
	Params Params
	Level  int
	Seq    uint64
	T0, T1 int
	Lanes  []laneMeta
}

// headerFrameLen returns the byte length of the framed header (magic
// through payload CRC) for n lanes.
func headerFrameLen(n int) int {
	payload := 8 + 8 + 8 + 8 + // p, k, rows, seed
		6*4 + // size range, estimator, panelCols
		4 + 8 + 8 + 8 + // level, seq, t0, t1
		4 + n*laneRecordLen
	return 4 + 4 + 8 + payload + 4
}

// laneRecordLen is the encoded size of one laneMeta.
const laneRecordLen = 4 + 4 + 4 + 8 + 8

// trailerLen returns the byte length of the trailer for n lanes.
func trailerLen(n int) int { return 4 + 4 + 4*n + 4 }

// layout returns the lane records of a segment over [t0, t1): canonical
// order, each blob laneRows·(t1−t0)·k floats at the next page-aligned
// offset after the header frame.
func (p Params) layout(t0, t1 int) []laneMeta {
	ids := p.lanes()
	metas := make([]laneMeta, len(ids))
	off := alignUp(int64(headerFrameLen(len(ids))))
	for n, id := range ids {
		floats := int64(p.laneRows(id.I)) * int64(t1-t0) * int64(p.K)
		metas[n] = laneMeta{ID: id, Off: off, Floats: floats}
		off = alignUp(off + metas[n].bytes())
	}
	return metas
}

func (h *segHeader) encode() []byte {
	var buf bytes.Buffer
	buf.Write(segMagic[:])
	le := func(v uint64, n int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:n])
	}
	le(segVersion, 4)

	var payload bytes.Buffer
	pw := func(v uint64, n int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		payload.Write(b[:n])
	}
	pw(math.Float64bits(h.Params.P), 8)
	pw(uint64(h.Params.K), 8)
	pw(uint64(h.Params.Rows), 8)
	pw(h.Params.Seed, 8)
	pw(uint64(h.Params.MinLogRows), 4)
	pw(uint64(h.Params.MaxLogRows), 4)
	pw(uint64(h.Params.MinLogCols), 4)
	pw(uint64(h.Params.MaxLogCols), 4)
	pw(uint64(h.Params.Estimator), 4)
	pw(uint64(h.Params.PanelCols), 4)
	pw(uint64(h.Level), 4)
	pw(h.Seq, 8)
	pw(uint64(h.T0), 8)
	pw(uint64(h.T1), 8)
	pw(uint64(len(h.Lanes)), 4)
	for _, lm := range h.Lanes {
		pw(uint64(lm.ID.I), 4)
		pw(uint64(lm.ID.J), 4)
		pw(uint64(lm.ID.S), 4)
		pw(uint64(lm.Off), 8)
		pw(uint64(lm.Floats), 8)
	}
	le(uint64(payload.Len()), 8)
	buf.Write(payload.Bytes())
	le(uint64(crc32.Checksum(payload.Bytes(), crcTable)), 4)
	return buf.Bytes()
}

// parseSegHeader reads and validates the framed header from r. A file
// of another format version comes back as a *versionError.
func parseSegHeader(r io.Reader) (*segHeader, error) {
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("segstore: reading segment header: %w", err)
	}
	if !bytes.Equal(fixed[:4], segMagic[:]) {
		return nil, fmt.Errorf("segstore: bad segment magic %q", fixed[:4])
	}
	if v := binary.LittleEndian.Uint32(fixed[4:8]); v != segVersion {
		return nil, &versionError{got: v}
	}
	plen := binary.LittleEndian.Uint64(fixed[8:16])
	if plen == 0 || plen > maxHeaderLen {
		return nil, fmt.Errorf("segstore: implausible header length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("segstore: reading segment header payload: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("segstore: reading segment header CRC: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return nil, fmt.Errorf("segstore: segment header CRC mismatch (got %08x, want %08x)", got, want)
	}

	h := &segHeader{}
	pos := 0
	rd := func(n int) (uint64, bool) {
		if pos+n > len(payload) {
			return 0, false
		}
		var b [8]byte
		copy(b[:], payload[pos:pos+n])
		pos += n
		return binary.LittleEndian.Uint64(b[:]), true
	}
	ok := true
	get := func(n int) uint64 {
		v, o := rd(n)
		ok = ok && o
		return v
	}
	h.Params.P = math.Float64frombits(get(8))
	h.Params.K = int(get(8))
	h.Params.Rows = int(get(8))
	h.Params.Seed = get(8)
	h.Params.MinLogRows = int(get(4))
	h.Params.MaxLogRows = int(get(4))
	h.Params.MinLogCols = int(get(4))
	h.Params.MaxLogCols = int(get(4))
	h.Params.Estimator = core.Estimator(get(4))
	h.Params.PanelCols = int(get(4))
	h.Level = int(get(4))
	h.Seq = get(8)
	h.T0 = int(get(8))
	h.T1 = int(get(8))
	nl := int(get(4))
	if !ok || nl < 0 || nl > (len(payload)-pos)/laneRecordLen {
		return nil, fmt.Errorf("segstore: truncated or implausible segment header")
	}
	h.Lanes = make([]laneMeta, nl)
	for n := range h.Lanes {
		lm := &h.Lanes[n]
		lm.ID.I = int(get(4))
		lm.ID.J = int(get(4))
		lm.ID.S = int(get(4))
		lm.Off = int64(get(8))
		lm.Floats = int64(get(8))
	}
	if !ok || pos != len(payload) {
		return nil, fmt.Errorf("segstore: segment header length mismatch")
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// validate checks the header's internal consistency: parameters, band
// geometry, and lane records equal to the layout they imply.
func (h *segHeader) validate() error {
	if err := h.Params.validate(); err != nil {
		return err
	}
	if h.T0 < 0 || h.T1 <= h.T0 || h.T1 > 1<<40 {
		return fmt.Errorf("segstore: segment column range [%d,%d) empty, negative or implausible", h.T0, h.T1)
	}
	align := h.Params.SegAlign()
	if h.T0%align != 0 || h.T1%align != 0 {
		return fmt.Errorf("segstore: segment range [%d,%d) not aligned to %d", h.T0, h.T1, align)
	}
	if h.Level < 0 || h.Level > 60 {
		return fmt.Errorf("segstore: implausible segment level %d", h.Level)
	}
	// Rows and K are each below 2^24 and a lane has at most Rows·width·K
	// floats: bounded here so that layout's offsets cannot overflow.
	if int64(h.Params.Rows)*int64(h.Params.K) > maxLaneFloats/int64(h.T1-h.T0) {
		return fmt.Errorf("segstore: implausible lane size %d rows × %d columns × k=%d",
			h.Params.Rows, h.T1-h.T0, h.Params.K)
	}
	want := h.Params.layout(h.T0, h.T1)
	if len(h.Lanes) != len(want) {
		return fmt.Errorf("segstore: segment has %d lanes, params need %d", len(h.Lanes), len(want))
	}
	for n, lm := range h.Lanes {
		if lm != want[n] {
			return fmt.Errorf("segstore: lane %d is %+v, want %+v by layout", n, lm, want[n])
		}
	}
	return nil
}

// trailerOff returns the offset of the trailer: the end of the last blob.
func (h *segHeader) trailerOff() int64 {
	last := h.Lanes[len(h.Lanes)-1] // validate: at least one lane
	return last.Off + last.bytes()
}

// size returns the total file size the header describes.
func (h *segHeader) size() int64 { return h.trailerOff() + int64(trailerLen(len(h.Lanes))) }

// encodeTrailer frames the per-lane blob CRCs, in header lane order.
func encodeTrailer(crcs []uint32) []byte {
	b := make([]byte, 0, trailerLen(len(crcs)))
	b = append(b, trailerMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(crcs)))
	for _, c := range crcs {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// parseSegTrailer reads and validates the trailer of a segment with
// lanes lanes from r, returning the per-lane blob CRCs.
func parseSegTrailer(r io.Reader, lanes int) ([]uint32, error) {
	if lanes < 0 || lanes > maxLanes {
		return nil, fmt.Errorf("segstore: implausible trailer lane count %d", lanes)
	}
	b := make([]byte, trailerLen(lanes))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("segstore: reading segment trailer: %w", err)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if !bytes.Equal(body[:4], trailerMagic[:]) {
		return nil, fmt.Errorf("segstore: bad segment trailer magic %q", body[:4])
	}
	if got := crc32.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("segstore: segment trailer CRC mismatch (got %08x, want %08x)", got, sum)
	}
	if n := binary.LittleEndian.Uint32(body[4:8]); int64(n) != int64(lanes) {
		return nil, fmt.Errorf("segstore: segment trailer has %d lane CRCs, header has %d lanes", n, lanes)
	}
	crcs := make([]uint32, lanes)
	for n := range crcs {
		crcs[n] = binary.LittleEndian.Uint32(body[8+4*n:])
	}
	return crcs, nil
}

// alignUp rounds n up to a multiple of segPageAlign.
func alignUp(n int64) int64 {
	return (n + segPageAlign - 1) &^ (segPageAlign - 1)
}

// crcShift is the operator that appends a fixed number n of zero bytes
// to a CRC32C register: a linear map, here a 32 × 32 GF(2) matrix
// (column m is shift[m]). It is what combines CRCs: for len(b) = n,
// CRC32C(a ‖ b) = shift · CRC32C(a) ⊕ CRC32C(b) (zlib's crc32_combine,
// over the Castagnoli polynomial), since the CRC of a concatenation is
// linear in its parts once the register inversions cancel. The operator
// depends on n alone, so a segment builds one per distinct lane length —
// every lane of one pool size has one — and pays one matrix-vector
// product a lane.
type crcShift [32]uint32

// newCRCShift returns the operator for n ≥ 0 zero bytes: the one-byte
// operator (three squarings of the one-zero-bit one) raised to the n-th
// power by repeated squaring, O(log n) matrix products.
func newCRCShift(n int64) *crcShift {
	// bit is the operator for one zero bit: a shift, and the reflected
	// polynomial fed back from bit 0.
	var bit, two, four, pow, sq, op [32]uint32
	bit[0] = crc32.Castagnoli
	for m, row := 1, uint32(1); m < 32; m, row = m+1, row<<1 {
		bit[m] = row
	}
	gf2Mul(&two, &bit, &bit)
	gf2Mul(&four, &two, &two)
	gf2Mul(&pow, &four, &four) // one byte
	for m := range op {
		op[m] = 1 << m
	}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			gf2Mul(&op, &pow, &op)
		}
		gf2Mul(&sq, &pow, &pow)
		pow = sq
	}
	return (*crcShift)(&op)
}

// combine returns CRC32C(a ‖ b) from crcA = CRC32C(a) and crcB =
// CRC32C(b), where b is as long as the shift.
func (sh *crcShift) combine(crcA, crcB uint32) uint32 {
	return gf2Times((*[32]uint32)(sh), crcA) ^ crcB
}

// gf2Times multiplies the 32 × 32 GF(2) matrix mat (column n is mat[n])
// by the vector vec.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for n := 0; vec != 0; n, vec = n+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[n]
		}
	}
	return sum
}

// gf2Mul sets prod to a · b, column by column; prod may be b but not a.
func gf2Mul(prod, a, b *[32]uint32) {
	for n := range prod {
		prod[n] = gf2Times(a, b[n])
	}
}

// readSegHeaderFile opens path and parses just its header — the
// O(1)-per-segment restart read.
func readSegHeaderFile(path string) (*segHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	h, err := parseSegHeader(f)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	return h, st.Size(), nil
}
