package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
)

// asVersion rewrites every live segment of dir as a build that wrote an
// older segment format version would have left it, as far as a reader
// can tell before it refuses: the version word says so and the
// manifest's whole-file CRC covers the file as written, so nothing is
// corrupt.
func asVersion(t *testing.T, dir string, version uint32) {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := range man.Segments {
		path := filepath.Join(dir, man.Segments[n].File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[4:8], version)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Segments[n].CRC = crc32.Checksum(raw, crcTable)
	}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// TestOtherFormatVersionIsRefusedNotRepaired: a directory of version-4
// segments — a header with an estimator word —, of version-3 ones
// (float32 lanes), of version-2 ones (float64 lanes) or of version-1 ones
// — the same shape keyed by a tile's first column — is refused by Open
// with an error naming the directory and the way out, and fsck lists
// each file as a version problem, quarantines nothing and rewrites
// nothing.
func TestOtherFormatVersionIsRefusedNotRepaired(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, 4} {
		otherFormatVersionIsRefused(t, version)
	}
}

func otherFormatVersionIsRefused(t *testing.T, version uint32) {
	dir := fsckFixture(t)
	asVersion(t, dir, version)
	named := fmt.Sprintf("version %d,", version) // "segment format version 2, this build reads …"
	before, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, testParams())
	if err == nil {
		t.Fatalf("Open accepted version-%d segments", version)
	}
	for _, want := range []string{dir, named, "derived from", "remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "fsck") {
		t.Errorf("Open error %q sends the operator to fsck, which cannot help", err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if rep.OK() || len(rep.Problems) != 5 || len(rep.Quarantined) != 0 || rep.Rebuilt {
		t.Fatalf("fsck over version-%d segments: %+v, want five problems and nothing touched", version, rep)
	}
	for _, p := range rep.Problems {
		if !strings.Contains(p, named) || !strings.Contains(p, "not corruption") || !strings.Contains(p, dir) {
			t.Errorf("fsck problem %q does not read as a version problem naming %s", p, dir)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("fsck rewrote the manifest of a version-%d directory (err %v)", version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir)); !os.IsNotExist(err) {
		t.Fatalf("fsck created a quarantine for a version problem (stat err %v)", err)
	}

	// The way out the errors name.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, testParams())
	if err != nil {
		t.Fatalf("Open after removing the directory: %v", err)
	}
	st.Close()
}

// TestTrailerGuardsLaneCRCs: the per-lane CRC table lives in the trailer,
// under a checksum of its own. A flipped trailer byte fails Open (the
// trailer is restart's evidence that the file was written out whole) and
// a flipped lane byte is pinned to its lane by fsck.
func TestTrailerGuardsLaneCRCs(t *testing.T) {
	dir := fsckFixture(t)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Segments[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseSegHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != h.size() || h.trailerOff() != int64(len(raw)-trailerLen(len(h.Lanes))) {
		t.Fatalf("file is %d bytes, header describes %d with the trailer at %d", len(raw), h.size(), h.trailerOff())
	}
	crcs, err := parseSegTrailer(bytes.NewReader(raw[h.trailerOff():]), len(h.Lanes))
	if err != nil {
		t.Fatal(err)
	}
	for n, lm := range h.Lanes {
		if got := crc32.Checksum(raw[lm.Off:lm.Off+lm.bytes()], crcTable); got != crcs[n] {
			t.Fatalf("lane %+v: blob CRC %08x, trailer says %08x", lm.ID, got, crcs[n])
		}
	}

	flipped := append([]byte(nil), raw...)
	flipped[h.trailerOff()+9] ^= 0x01 // inside the first lane's CRC
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testParams()); err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("Open over a flipped trailer byte: err = %v, want a trailer error", err)
	}

	// A flipped lane byte, with the manifest's whole-file CRC made to
	// agree so that the per-lane check is the one that has to catch it.
	flipped = append([]byte(nil), raw...)
	victim := h.Lanes[len(h.Lanes)-1]
	flipped[victim.Off+17] ^= 0x80
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	man.Segments[0].CRC = crc32.Checksum(flipped, crcTable)
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) == 0 || !strings.Contains(rep.Problems[0], "payload CRC32C") ||
		!strings.Contains(rep.Problems[0], "S:3") {
		t.Fatalf("fsck problems %q, want the last lane's payload CRC first", rep.Problems)
	}
}

func fuzzSegHeader() *segHeader {
	p := testParams()
	return &segHeader{Params: p, Level: 1, Seq: 9, T0: 8, T1: 24, Lanes: p.layout(8, 24)}
}

// FuzzParseSegHeader: segment headers are read from files anyone may
// have written. Arbitrary bytes produce an error, never a panic and
// never an allocation beyond the framed length the reader is prepared to
// buffer (maxHeaderLen, checked before the payload is read; lane records
// are counted against the payload before they are allocated); a header
// that parses re-encodes to the bytes it was parsed from.
func FuzzParseSegHeader(f *testing.F) {
	valid := fuzzSegHeader().encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	huge := append([]byte(nil), valid[:16]...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<40)
	f.Add(huge)
	for _, v := range []uint32{1, segVersion - 1} {
		old := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(old[4:], v)
		f.Add(old)
	}
	f.Add([]byte("SKSG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseSegHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := h.encode()
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("header %+v re-encodes to %d bytes that differ from the %d parsed", h, len(enc), len(data))
		}
		if h.size() <= h.trailerOff() || h.trailerOff() < int64(len(enc)) {
			t.Fatalf("header %+v lays the trailer at %d of %d, header frame %d", h, h.trailerOff(), h.size(), len(enc))
		}
	})
}

// FuzzParseSegTrailer is the same contract for the trailer.
func FuzzParseSegTrailer(f *testing.F) {
	valid := encodeTrailer([]uint32{1, 0xdeadbeef, 3})
	f.Add(valid, 3)
	f.Add(valid, 2)
	f.Add(valid[:len(valid)-1], 3)
	f.Add(valid, 1<<30)
	f.Add(valid, -1)
	f.Add([]byte("SKST"), 0)
	f.Fuzz(func(t *testing.T, data []byte, lanes int) {
		crcs, err := parseSegTrailer(bytes.NewReader(data), lanes)
		if err != nil {
			return
		}
		if len(crcs) != lanes {
			t.Fatalf("%d CRCs for %d lanes", len(crcs), lanes)
		}
		if enc := encodeTrailer(crcs); !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("trailer %08x re-encodes to bytes that differ from those parsed", crcs)
		}
	})
}

// TestHeaderBoundsWhatItAllocates pins the two bounds the fuzz target
// relies on with the inputs that would cross them.
func TestHeaderBoundsWhatItAllocates(t *testing.T) {
	valid := fuzzSegHeader().encode()
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[8:], maxHeaderLen+1)
	if _, err := parseSegHeader(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "header length") {
		t.Fatalf("header claiming %d payload bytes: err = %v", maxHeaderLen+1, err)
	}
	// A lane count the payload cannot hold, under a valid CRC.
	payload := append([]byte(nil), valid[16:len(valid)-4]...)
	binary.LittleEndian.PutUint32(payload[8+8+8+8+5*4+4+8+8+8:], 1<<31-1)
	lying := append(append([]byte(nil), valid[:16]...), payload...)
	lying = binary.LittleEndian.AppendUint32(lying, crc32.Checksum(payload, crcTable))
	if _, err := parseSegHeader(bytes.NewReader(lying)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("header claiming 2^31 lanes: err = %v", err)
	}
	if _, err := parseSegTrailer(bytes.NewReader(nil), maxLanes+1); err == nil {
		t.Fatal("trailer parse for more lanes than a header can hold accepted")
	}
	h, err := parseSegHeader(bytes.NewReader(valid))
	if err != nil || !reflect.DeepEqual(h, fuzzSegHeader()) {
		t.Fatalf("control header: %+v, %v", h, err)
	}
}

// BenchmarkSealCompact is the segment writer at ingest_live's geometry
// (128-row table, 32-column day, k = 64, one 32 × 32 size): one level-0
// seal of a day, and one fanout-4 merge of four of them (out of a pool of
// five days, so that the same file measures a build whose sealable
// prefix lags its table by a tile).
func BenchmarkSealCompact(b *testing.B) {
	p := Params{P: 1, K: 64, Rows: 128, Seed: 1, MinLogRows: 5, MaxLogRows: 5, MinLogCols: 5, MaxLogCols: 5,
		PanelCols: 32}
	const days = DefaultCompactFanout
	tb := testTable(b, p.Rows, (days+1)*32, 0)
	pool, err := core.NewPool(tb, p.P, p.K, p.Seed, testOpts(p))
	if err != nil {
		b.Fatal(err)
	}
	fresh := func(b *testing.B, sealed int) *Store {
		b.Helper()
		st, err := Open(b.TempDir(), p)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < sealed; d++ {
			if err := st.WriteL0(pool, d*32, (d+1)*32); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	b.Run("seal-day", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := fresh(b, days-1)
			b.StartTimer()
			if err := st.WriteL0(pool, (days-1)*32, days*32); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st.Close()
			b.StartTimer()
		}
	})
	b.Run("merge-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := fresh(b, days)
			b.StartTimer()
			if did, err := st.Compact(DefaultCompactFanout); err != nil || !did {
				b.Fatalf("Compact: did=%v err=%v", did, err)
			}
			b.StopTimer()
			st.Close()
			b.StartTimer()
		}
	})
}

// crc32Combine is the combine writeSegmentFile ran before crcShift, kept
// as its reference: the operator for lenB zero bytes applied straight to
// crcA, squaring as it goes, rebuilt on every call.
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	var even, odd [32]uint32
	odd[0] = crc32.Castagnoli
	for n, row := 1, uint32(1); n < 32; n, row = n+1, row<<1 {
		odd[n] = row
	}
	gf2Mul(&even, &odd, &odd)  // two zero bits
	gf2Mul(&odd, &even, &even) // four
	for {
		gf2Mul(&even, &odd, &odd)
		if lenB&1 != 0 {
			crcA = gf2Times(&even, crcA)
		}
		if lenB >>= 1; lenB == 0 {
			break
		}
		gf2Mul(&odd, &even, &even)
		if lenB&1 != 0 {
			crcA = gf2Times(&odd, crcA)
		}
		if lenB >>= 1; lenB == 0 {
			break
		}
	}
	return crcA ^ crcB
}

// TestCRCShiftIsCrc32Combine: one operator built for a length combines
// every pair of CRCs as crc32Combine does, at lengths 0 to 2⁴⁰ — powers
// of two, their neighbours and random ones.
func TestCRCShiftIsCrc32Combine(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 42))
	lengths := []int64{0, 1, 2, 3, 7, 8, 9, 4096, 1 << 40}
	for e := 1; e < 40; e++ {
		lengths = append(lengths, 1<<e-1, 1<<e+1, rng.Int64N(1<<e))
	}
	for _, n := range lengths {
		shift := newCRCShift(n)
		for trial := 0; trial < 4; trial++ {
			a, b := rng.Uint32(), rng.Uint32()
			if n == 0 {
				b = 0 // the CRC of the one empty b
			}
			if got, want := shift.combine(a, b), crc32Combine(a, b, n); got != want {
				t.Fatalf("length %d: shift combines %08x, %08x to %08x, crc32Combine %08x", n, a, b, got, want)
			}
		}
	}
}

// TestCombinedCRCIsTheFileCRC: the whole-file CRC the writer records,
// combined from the header's, the padding's, the lane blobs' and the
// trailer's CRCs, is crc32.Checksum over the bytes on disk, for random
// geometries — lanes of one row to many pages, blobs ending anywhere in
// a page — and for one whose lanes have two lengths (two row sizes), so
// two combine operators; and the combine itself over random splits.
func TestCombinedCRCIsTheFileCRC(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 38))
	for n := 0; n < 200; n++ {
		a, b := make([]byte, rng.IntN(3000)), make([]byte, rng.IntN(70000))
		for i := range a {
			a[i] = byte(rng.Uint32())
		}
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		whole := crc32.Checksum(append(append([]byte(nil), a...), b...), crcTable)
		if got := newCRCShift(int64(len(b))).combine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable)); got != whole {
			t.Fatalf("combine over a split %d + %d: %08x, want %08x", len(a), len(b), got, whole)
		}
	}
	twoLengths := Params{P: 1, K: 3, Rows: 40, Seed: 5, MinLogRows: 0, MaxLogRows: 1, PanelCols: 2}
	lengths := map[int64]bool{}
	for _, lm := range twoLengths.layout(0, 2) {
		lengths[lm.bytes()] = true
	}
	if len(lengths) != 2 {
		t.Fatalf("the two-length geometry has %d lane lengths", len(lengths))
	}
	for n := 0; n < 13; n++ {
		params := Params{P: 1, K: 1 + rng.IntN(9), Rows: 1 + rng.IntN(40), Seed: rng.Uint64(),
			MaxLogCols: rng.IntN(3), PanelCols: 1 << rng.IntN(3)}
		params.MaxLogRows = rng.IntN(bits.Len(uint(params.Rows)))
		align := params.SegAlign()
		t0 := align * rng.IntN(3)
		t1 := t0 + align*(1+rng.IntN(4))
		if n == 12 {
			params, t0, t1 = twoLengths, 0, 2
		}
		path := filepath.Join(t.TempDir(), "seg")
		e, err := writeSegmentFile(path, params, 0, 1, t0, t1,
			func(id core.LaneID, emit func([]fft.Lane) error) error {
				lanes := make([]fft.Lane, params.laneRows(id.I)*(t1-t0)*params.K)
				for i := range lanes {
					lanes[i] = fft.Lane(rng.Uint32())
				}
				// Ragged runs, as a pool's rows and a merge's inputs arrive.
				for len(lanes) > 0 {
					run := lanes[:min(len(lanes), 1+rng.IntN(700))]
					if err := emit(run); err != nil {
						return err
					}
					lanes = lanes[len(run):]
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != e.Bytes || crc32.Checksum(raw, crcTable) != e.CRC {
			t.Fatalf("%+v over [%d,%d): entry says %d bytes CRC %08x, file is %d bytes CRC %08x",
				params, t0, t1, e.Bytes, e.CRC, len(raw), crc32.Checksum(raw, crcTable))
		}
	}
}
