package workload

import (
	"math"
	"testing"

	"repro/internal/table"
)

func TestCallVolumeDims(t *testing.T) {
	tb, meta, err := CallVolume(CallVolumeConfig{Stations: 64, Days: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 64 || tb.Cols() != 2*BucketsPerDay {
		t.Fatalf("dims %dx%d", tb.Rows(), tb.Cols())
	}
	if len(meta.Kinds) != 64 || len(meta.Shift) != 64 {
		t.Fatal("meta lengths wrong")
	}
	if len(meta.Centers) < 2 {
		t.Fatalf("expected >= 2 pop centers, got %d", len(meta.Centers))
	}
}

func TestCallVolumeErrors(t *testing.T) {
	if _, _, err := CallVolume(CallVolumeConfig{Stations: 0, Days: 1}); err == nil {
		t.Error("expected dims error")
	}
	if _, _, err := CallVolume(CallVolumeConfig{Stations: 4, Days: 1, PopCenters: 10}); err == nil {
		t.Error("expected centers error")
	}
}

func TestCallVolumeNonNegative(t *testing.T) {
	tb, _, err := CallVolume(CallVolumeConfig{Stations: 32, Days: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tb.Data() {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("invalid value %v", v)
		}
	}
}

func TestCallVolumeDiurnalShape(t *testing.T) {
	// Night traffic must be far below business-hours traffic, and urban
	// stations must be much busier than rural ones during the day.
	tb, meta, err := CallVolume(CallVolumeConfig{
		Stations: 64, Days: 1, Seed: 3, MaxShiftBuckets: -1, NoiseFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var urbanRow, ruralRow = -1, -1
	for s, k := range meta.Kinds {
		if k == KindUrban && urbanRow == -1 {
			urbanRow = s
		}
		if k == KindRural && ruralRow == -1 {
			ruralRow = s
		}
	}
	if urbanRow == -1 || ruralRow == -1 {
		t.Fatalf("missing kinds: urban %d rural %d (kinds %v)", urbanRow, ruralRow, meta.Kinds)
	}
	night := tb.At(urbanRow, 3*6) // 3am
	noon := tb.At(urbanRow, 12*6) // noon
	if noon < 5*night {
		t.Errorf("urban noon %v not >> night %v", noon, night)
	}
	ruralNoon := tb.At(ruralRow, 12*6)
	if noon < 3*ruralNoon {
		t.Errorf("urban noon %v not >> rural noon %v", noon, ruralNoon)
	}
}

func TestCallVolumeTimeShift(t *testing.T) {
	// With the coast shift enabled, the last station's business day starts
	// later than the first station's.
	tb, meta, err := CallVolume(CallVolumeConfig{
		Stations: 128, Days: 1, Seed: 4, PopCenters: 2, NoiseFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shift[0] != 0 || meta.Shift[127] != 18 {
		t.Fatalf("shift endpoints %d, %d", meta.Shift[0], meta.Shift[127])
	}
	// Find rise time for first and last population centers: the first
	// bucket after the overnight quiet period (5am absolute, quiet on both
	// coasts) where the value exceeds half the daily max.
	riseBucket := func(s int) int {
		row := tb.Row(s)
		var max float64
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		for x := 5 * 6; x < len(row); x++ {
			if row[x] > max/2 {
				return x
			}
		}
		return -1
	}
	first, last := meta.Centers[0], meta.Centers[len(meta.Centers)-1]
	rf, rl := riseBucket(first), riseBucket(last)
	if rl <= rf {
		t.Errorf("western center rises at %d, not after eastern %d", rl, rf)
	}
}

func TestCallVolumeDeterministic(t *testing.T) {
	a, _, _ := CallVolume(CallVolumeConfig{Stations: 16, Days: 1, Seed: 9})
	b, _, _ := CallVolume(CallVolumeConfig{Stations: 16, Days: 1, Seed: 9})
	if !table.EqualApprox(a, b, 0) {
		t.Error("same seed produced different tables")
	}
	c, _, _ := CallVolume(CallVolumeConfig{Stations: 16, Days: 1, Seed: 10})
	if table.EqualApprox(a, c, 0) {
		t.Error("different seeds produced identical tables")
	}
}

func TestSixRegionsBands(t *testing.T) {
	d, err := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bands: 16, 16, 16, 8, 4, 4 rows.
	wantEnds := [6]int{16, 32, 48, 56, 60, 64}
	if d.BandEnd != wantEnds {
		t.Fatalf("BandEnd = %v, want %v", d.BandEnd, wantEnds)
	}
	if d.RegionOfRow(0) != 0 || d.RegionOfRow(15) != 0 || d.RegionOfRow(16) != 1 ||
		d.RegionOfRow(59) != 4 || d.RegionOfRow(63) != 5 {
		t.Error("RegionOfRow misassigns")
	}
}

func TestSixRegionsErrors(t *testing.T) {
	if _, err := NewSixRegions(SixRegionsConfig{Rows: 0, Cols: 4}); err == nil {
		t.Error("expected dims error")
	}
	if _, err := NewSixRegions(SixRegionsConfig{Rows: 20, Cols: 4}); err == nil {
		t.Error("expected divisibility error")
	}
}

func TestSixRegionsMeansSeparated(t *testing.T) {
	d, err := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 256, Seed: 2, OutlierFrac: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Per-band empirical means must be close to the configured means and
	// strictly increasing.
	start := 0
	for i, end := range d.BandEnd {
		var sum float64
		var n int
		for r := start; r < end; r++ {
			for _, v := range d.Table.Row(r) {
				sum += v
				n++
			}
		}
		mean := sum / float64(n)
		if math.Abs(mean-d.Means[i]) > 200 {
			t.Errorf("band %d mean %v, want ~%v", i, mean, d.Means[i])
		}
		start = end
	}
}

func TestSixRegionsOutliersPresent(t *testing.T) {
	clean, _ := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 64, Seed: 3, OutlierFrac: -1})
	dirty, _ := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 64, Seed: 3, OutlierFrac: 0.01})
	countExtreme := func(t_ *table.Table) int {
		n := 0
		for _, v := range t_.Data() {
			if v > 40000 || v < 5000 {
				n++
			}
		}
		return n
	}
	if countExtreme(clean.Table) != 0 {
		t.Error("clean dataset has extreme values")
	}
	got := countExtreme(dirty.Table)
	// ~1% of 4096 = ~41; outliers can overwrite the same cell or fall in
	// plausible mid-range for high-mean bands, so accept a broad range.
	if got < 15 || got > 60 {
		t.Errorf("outlier count %d outside expected range", got)
	}
}

func TestSixRegionsTileLabels(t *testing.T) {
	d, _ := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 64, Seed: 4})
	g, err := table.NewGrid(64, 64, 4, 4) // 4 divides every band height
	if err != nil {
		t.Fatal(err)
	}
	labels, err := d.TileLabels(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != g.NumTiles() {
		t.Fatalf("label count %d, want %d", len(labels), g.NumTiles())
	}
	// Counts must follow the band proportions: 16 tile rows, band heights
	// in tile rows: 4,4,4,2,1,1 × 16 tile cols.
	counts := make([]int, NumRegions)
	for _, l := range labels {
		counts[l]++
	}
	want := []int{64, 64, 64, 32, 16, 16}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("region %d tile count %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestSixRegionsTileLabelsStraddleError(t *testing.T) {
	d, _ := NewSixRegions(SixRegionsConfig{Rows: 64, Cols: 64, Seed: 5})
	g, _ := table.NewGrid(64, 64, 24, 4) // 24 straddles the 16-row band edge
	if _, err := d.TileLabels(g); err == nil {
		t.Error("expected straddle error")
	}
}

func TestRandom(t *testing.T) {
	tb := Random(8, 8, 2.0, 7)
	if tb.Rows() != 8 || tb.Cols() != 8 {
		t.Fatal("dims wrong")
	}
	var sum float64
	for _, v := range tb.Data() {
		sum += v
	}
	if math.Abs(sum/64) > 2 {
		t.Errorf("mean %v implausible for N(0,2)", sum/64)
	}
}

func TestHourOf(t *testing.T) {
	if h := hourOf(0); h != 0 {
		t.Errorf("hourOf(0) = %v", h)
	}
	if h := hourOf(72); h != 12 {
		t.Errorf("hourOf(72) = %v, want 12", h)
	}
	if h := hourOf(-6); h != 23 {
		t.Errorf("hourOf(-6) = %v, want 23 (wraps)", h)
	}
}

func TestBusinessCurveShape(t *testing.T) {
	night := businessCurve(6 * 3)    // 3am
	noon := businessCurve(6 * 12)    // noon
	evening := businessCurve(6 * 23) // 11pm
	if night >= 0.1 {
		t.Errorf("night activity %v too high", night)
	}
	if noon != 1 {
		t.Errorf("noon activity %v, want 1", noon)
	}
	if evening >= noon || evening <= night/2 {
		t.Errorf("evening activity %v should sit between noon and deep night", evening)
	}
}

func TestCallVolumeWeekendCycle(t *testing.T) {
	tb, meta, err := CallVolume(CallVolumeConfig{
		Stations: 32, Days: 7, Seed: 6, Weekend: true, NoiseFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an urban station and compare noon traffic Monday vs Saturday.
	urban := -1
	for s, k := range meta.Kinds {
		if k == KindUrban {
			urban = s
			break
		}
	}
	if urban == -1 {
		t.Fatal("no urban station")
	}
	noon := 12 * 6
	monday := tb.At(urban, 0*BucketsPerDay+noon)
	saturday := tb.At(urban, 5*BucketsPerDay+noon)
	if saturday > monday/2 {
		t.Errorf("weekend noon %v not clearly below weekday noon %v", saturday, monday)
	}
	// Without the weekend flag all days look alike.
	flat, _, err := CallVolume(CallVolumeConfig{
		Stations: 32, Days: 7, Seed: 6, NoiseFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mondayF := flat.At(urban, 0*BucketsPerDay+noon)
	saturdayF := flat.At(urban, 5*BucketsPerDay+noon)
	if saturdayF != mondayF {
		t.Errorf("weekday cycle leaked without Weekend: %v vs %v", saturdayF, mondayF)
	}
}
