package segstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fsckFixture builds a store with five L0 segments — the 20-column
// table sealed whole, see sealAll — and closes it, returning the
// directory.
func fsckFixture(t *testing.T) string {
	t.Helper()
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)
	st.Close()
	return dir
}

func TestFsckHealthyStore(t *testing.T) {
	dir := fsckFixture(t)
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if !rep.OK() || rep.Checked != 5 || rep.Rebuilt {
		t.Fatalf("healthy store fsck report %+v", rep)
	}
}

func TestFsckNoStore(t *testing.T) {
	rep, err := Fsck(t.TempDir())
	if err != nil || !rep.OK() {
		t.Fatalf("fsck of empty dir: %+v, %v", rep, err)
	}
}

// TestFsckQuarantinesCorruptionAndTruncatesAtHole corrupts a middle
// segment's payload: fsck must quarantine it and every later segment
// (the live set must tile contiguously), and the repaired store must
// open and serve the surviving prefix.
func TestFsckQuarantinesCorruptionAndTruncatesAtHole(t *testing.T) {
	dir := fsckFixture(t)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Segments[1].File
	path := filepath.Join(dir, victim)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload byte: whole-file and lane CRC break
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if rep.OK() || !rep.Rebuilt {
		t.Fatalf("fsck missed the corruption: %+v", rep)
	}
	if len(rep.Quarantined) != 4 { // the victim plus the three segments after the hole
		t.Fatalf("quarantined %v, want the victim and its three followers", rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, q)); err != nil {
			t.Fatalf("quarantined file %q not preserved: %v", q, err)
		}
	}

	st, err := Open(dir, testParams())
	if err != nil {
		t.Fatalf("reopen after fsck: %v", err)
	}
	defer st.Close()
	if got := st.SealedCol(); got != 4 {
		t.Fatalf("repaired store sealed to %d, want the surviving prefix 4", got)
	}
	rep2, err := Fsck(dir)
	if err != nil || !rep2.OK() {
		t.Fatalf("second fsck not clean: %+v, %v", rep2, err)
	}
}

// TestFsckRebuildsManifest destroys the manifest: fsck must rebuild it
// from segment headers, keeping the full contiguous chain.
func TestFsckRebuildsManifest(t *testing.T) {
	dir := fsckFixture(t)
	manPath := filepath.Join(dir, manifestName)
	if err := os.WriteFile(manPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if !rep.Rebuilt {
		t.Fatalf("fsck did not rebuild the manifest: %+v", rep)
	}
	st, err := Open(dir, testParams())
	if err != nil {
		t.Fatalf("reopen after rebuild: %v", err)
	}
	defer st.Close()
	if got := st.SealedCol(); got != 20 {
		t.Fatalf("rebuilt store sealed to %d, want 20", got)
	}
	if n := len(st.Segments()); n != 5 {
		t.Fatalf("rebuilt manifest names %d segments, want 5", n)
	}
}

// TestFsckQuarantinesMissingSegmentFollowers deletes a segment file
// outright: the entry is dropped (nothing to quarantine) and the
// followers are quarantined.
func TestFsckQuarantinesMissingSegmentFollowers(t *testing.T) {
	dir := fsckFixture(t)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, man.Segments[2].File)); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined %v, want just the two followers", rep.Quarantined)
	}
	st, err := Open(dir, testParams())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if got := st.SealedCol(); got != 8 {
		t.Fatalf("repaired store sealed to %d, want 8", got)
	}
}

func TestFsckRemovesStrayTemps(t *testing.T) {
	dir := fsckFixture(t)
	stray := filepath.Join(dir, "segments.json.tmp-123")
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.TempsRemoved) != 1 {
		t.Fatalf("temps removed %v, want the stray", rep.TempsRemoved)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp survived fsck")
	}
}

// TestFsckDetectsSizeAndHeaderMismatch truncates a segment so its size
// disagrees with the manifest.
func TestFsckDetectsSizeMismatch(t *testing.T) {
	dir := fsckFixture(t)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Segments[4].File
	if err := os.Truncate(filepath.Join(dir, victim), man.Segments[4].Bytes-8); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != victim {
		t.Fatalf("quarantined %v, want only the truncated last segment", rep.Quarantined)
	}
}

func TestListReportsSegments(t *testing.T) {
	dir := fsckFixture(t)
	l, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if l.BaseCol != 0 || l.SealedCol != 20 || len(l.Segments) != 5 {
		t.Fatalf("listing %+v", l)
	}
	for _, s := range l.Segments {
		if !s.CRCOK {
			t.Fatalf("segment %q reports CRC mismatch on a healthy store", s.File)
		}
		if s.MappedBytes != s.Bytes || s.PayloadBytes <= 0 || s.PayloadBytes >= s.MappedBytes {
			t.Fatalf("segment %q byte accounting: mapped %d disk %d payload %d",
				s.File, s.MappedBytes, s.Bytes, s.PayloadBytes)
		}
	}
	// Corrupt one file: List must flag it without erroring.
	path := filepath.Join(dir, l.Segments[0].File)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := List(dir)
	if err != nil {
		t.Fatalf("List after corruption: %v", err)
	}
	if l2.Segments[0].CRCOK {
		t.Fatal("List missed a CRC mismatch")
	}
}

// TestManifestRoundTripsThroughJSON pins the on-disk JSON field names —
// external tooling parses them.
func TestManifestRoundTripsThroughJSON(t *testing.T) {
	dir := fsckFixture(t)
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "params", "base_col", "next_seq", "segments"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("manifest JSON lacks %q: %s", key, raw)
		}
	}
	segs := doc["segments"].([]any)
	first := segs[0].(map[string]any)
	for _, key := range []string{"file", "level", "seq", "t0", "t1", "crc32c", "bytes"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("segment entry JSON lacks %q: %s", key, raw)
		}
	}
}
