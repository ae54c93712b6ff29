package tabstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/workload"
)

func openStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir: expected error")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Error("file instead of dir: expected error")
	}
}

func TestOpenCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt manifest: expected error")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, manifestName), []byte(`{"version":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2); err == nil {
		t.Error("bad version: expected error")
	}
}

func TestAppendAndReload(t *testing.T) {
	s, dir := openStore(t)
	day0 := workload.Random(8, 10, 1, 1)
	day1 := workload.Random(8, 12, 1, 2)
	if err := s.AppendDay("mon", day0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDay("tue", day1, true); err != nil {
		t.Fatal(err)
	}
	if s.NumDays() != 2 || s.Rows() != 8 {
		t.Fatalf("NumDays %d Rows %d", s.NumDays(), s.Rows())
	}

	// Reopen from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumDays() != 2 || s2.Rows() != 8 {
		t.Fatalf("reloaded NumDays %d Rows %d", s2.NumDays(), s2.Rows())
	}
	labels := s2.Labels()
	if labels[0] != "mon" || labels[1] != "tue" {
		t.Errorf("labels %v", labels)
	}
	got0, err := s2.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualApprox(got0, day0, 0) {
		t.Error("day 0 roundtrip lost data")
	}
	got1, err := s2.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualApprox(got1, day1, 0) {
		t.Error("day 1 (compressed) roundtrip lost data")
	}
}

func TestAppendValidation(t *testing.T) {
	s, _ := openStore(t)
	if err := s.AppendDay("", workload.Random(4, 4, 1, 1), false); err == nil {
		t.Error("empty label: expected error")
	}
	if err := s.AppendDay("d", workload.Random(4, 4, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDay("d", workload.Random(4, 4, 1, 1), false); err == nil {
		t.Error("duplicate label: expected error")
	}
	if err := s.AppendDay("e", workload.Random(5, 4, 1, 1), false); err == nil {
		t.Error("row mismatch: expected error")
	}
}

func TestLoadRangeStitches(t *testing.T) {
	s, _ := openStore(t)
	days := make([]*table.Table, 3)
	for i := range days {
		days[i] = workload.Random(6, 4+i, 1, uint64(i))
		if err := s.AppendDay(labelOf(i), days[i], i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.LoadRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := table.Stitch(days...)
	if !table.EqualApprox(got, want, 0) {
		t.Error("LoadRange differs from direct stitch")
	}
	mid, err := s.LoadRange(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualApprox(mid, days[1], 0) {
		t.Error("single-day range differs from the day")
	}
}

func labelOf(i int) string { return string(rune('a' + i)) }

func TestLoadRangeErrors(t *testing.T) {
	s, _ := openStore(t)
	if err := s.AppendDay("a", workload.Random(4, 4, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 1}, {0, 2}, {1, 1}, {1, 0}} {
		if _, err := s.LoadRange(r[0], r[1]); err == nil {
			t.Errorf("range %v: expected error", r)
		}
	}
	if _, err := s.Day(5); err == nil {
		t.Error("day out of range: expected error")
	}
}

func TestDayDetectsManifestMismatch(t *testing.T) {
	s, dir := openStore(t)
	if err := s.AppendDay("a", workload.Random(4, 4, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	// Overwrite the day file with different dimensions.
	other := workload.Random(4, 9, 1, 2)
	if err := writeRaw(dir, "day-0000.tabf", other); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Day(0); err == nil {
		t.Error("expected manifest/file mismatch error")
	}
}

func writeRaw(dir, name string, tb *table.Table) error {
	return tabfile.WriteFile(filepath.Join(dir, name), tb, false)
}

func TestColumnAccounting(t *testing.T) {
	s, _ := openStore(t)
	widths := []int{5, 7, 3}
	for i, w := range widths {
		if err := s.AppendDay(labelOf(i), workload.Random(4, w, 1, uint64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ColsTotal(); got != 15 {
		t.Errorf("ColsTotal = %d, want 15", got)
	}
	wantOff := []int{0, 5, 12, 15}
	for i, want := range wantOff {
		got, err := s.ColOffset(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ColOffset(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := s.ColOffset(4); err == nil {
		t.Error("ColOffset past NumDays: expected error")
	}
	if w := s.m.Days[1].Cols; w != 7 {
		t.Errorf("day 1 is %d columns wide, want 7", w)
	}
}

func TestIterDays(t *testing.T) {
	s, _ := openStore(t)
	days := make([]*table.Table, 3)
	for i := range days {
		days[i] = workload.Random(6, 4+i, 1, uint64(i))
		if err := s.AppendDay(labelOf(i), days[i], false); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int
	err := s.IterDays(1, 3, func(i int, label string, tb *table.Table) error {
		seen = append(seen, i)
		if label != labelOf(i) {
			t.Errorf("day %d label %q", i, label)
		}
		if !table.EqualApprox(tb, days[i], 0) {
			t.Errorf("day %d data differs", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("visited %v, want [1 2]", seen)
	}
	sentinel := os.ErrClosed
	err = s.IterDays(0, 3, func(i int, _ string, _ *table.Table) error { return sentinel })
	if err != sentinel {
		t.Errorf("fn error not propagated: %v", err)
	}
	if err := s.IterDays(2, 1, func(int, string, *table.Table) error { return nil }); err == nil {
		t.Error("inverted range: expected error")
	}
	// Empty range is fine (the replay path hits it when nothing is missing).
	if err := s.IterDays(3, 3, func(int, string, *table.Table) error { return nil }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

// TestSecondWriterIsRefused: a store has one writer. When a second
// handle appends behind the first one's back, the first handle's next
// append is refused instead of rewriting the manifest from its own copy,
// which would drop the second writer's day.
func TestSecondWriterIsRefused(t *testing.T) {
	s, dir := openStore(t)
	if err := s.AppendDay("d0", workload.Random(4, 3, 1, 1), false); err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AppendDay("ext", workload.Random(4, 5, 1, 2), false); err != nil {
		t.Fatal(err)
	}
	err = s.AppendDay("push", workload.Random(4, 2, 1, 3), false)
	if !errors.Is(err, ErrManifestChanged) || !strings.Contains(err.Error(), "another writer") {
		t.Fatalf("append over another writer's day: %v, want a refusal wrapping ErrManifestChanged", err)
	}
	if s.NumDays() != 1 || s.ColsTotal() != 3 {
		t.Fatalf("refused append changed the handle: %d days, %d cols", s.NumDays(), s.ColsTotal())
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Labels(); !slices.Equal(got, []string{"d0", "ext"}) {
		t.Fatalf("reopened store lists %v, want [d0 ext]", got)
	}
	// The reopened handle has read the current manifest and may write.
	if err := reopened.AppendDay("push", workload.Random(4, 2, 1, 3), false); err != nil {
		t.Fatal(err)
	}
}

// TestColumnOffsetsMatchTheWalk: ColsTotal, ColOffset and DayAt answer
// from the cumulative offsets what a walk over the manifest answers, on
// a 5 000-day store of ragged widths — after Open and after an
// AppendDay.
func TestColumnOffsetsMatchTheWalk(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	m := manifest{Version: 1, Rows: 3}
	for i := 0; i < 5000; i++ {
		m.Days = append(m.Days, dayEntry{Label: fmt.Sprintf("d%05d", i),
			File: fmt.Sprintf("day-%05d.tabf", i), Cols: 1 + rng.Intn(97)})
	}
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, what string) {
		t.Helper()
		if s.NumDays() != len(m.Days) {
			t.Fatalf("%s: %d days, want %d", what, s.NumDays(), len(m.Days))
		}
		off := 0
		for i, d := range m.Days {
			if got, err := s.ColOffset(i); err != nil || got != off {
				t.Fatalf("%s: ColOffset(%d) = %d, %v; the walk says %d", what, i, got, err, off)
			}
			for _, col := range []int{off, off + d.Cols/2, off + d.Cols - 1} {
				if day, start, err := s.DayAt(col); err != nil || day != i || start != off {
					t.Fatalf("%s: DayAt(%d) = day %d from %d, %v; the walk says day %d from %d",
						what, col, day, start, err, i, off)
				}
			}
			off += d.Cols
		}
		if got, err := s.ColOffset(len(m.Days)); err != nil || got != off || s.ColsTotal() != off {
			t.Fatalf("%s: ColOffset(NumDays) = %d, %v, ColsTotal = %d; the walk says %d", what, got, err, s.ColsTotal(), off)
		}
		for _, col := range []int{-1, off, off + 5} {
			if _, _, err := s.DayAt(col); err == nil {
				t.Fatalf("%s: DayAt(%d) outside [0, %d) accepted", what, col, off)
			}
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(s, "open")
	day := table.New(3, 7)
	if err := s.AppendDay("pushed", day, false); err != nil {
		t.Fatal(err)
	}
	m.Days = append(m.Days, dayEntry{Label: "pushed", Cols: 7})
	check(s, "append")
}
