// Package workload generates the synthetic datasets used by the
// experiments, substituting for the proprietary AT&T data stores the paper
// measured (see DESIGN.md "Substitutions").
//
// Two generators matter:
//
//   - CallVolume mimics the paper's real dataset: call volumes from
//     collection stations spatially ordered by zip code (rows) over
//     10-minute buckets (columns), with population-center hot spots,
//     business-hours diurnal curves, commuter rush-hour flanks, an
//     East/West time-zone phase shift, and multiplicative noise. The
//     qualitative features Figure 5 depends on (vertical 9am–9pm bands,
//     metro cores flanked by weaker suburbs, a 3-hour coast shift) are all
//     present.
//
//   - SixRegions reproduces the synthetic dataset of Section 4.2: six
//     areas covering 1/4, 1/4, 1/4, 1/8, 1/16, 1/16 of the table, each
//     filled from a uniform distribution with a distinct mean in
//     [10000, 30000], then ~1% of values replaced by plausible outliers.
//     Ground-truth labels are exposed per tile for the Figure 4(b)
//     known-clustering experiment.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/table"
)

// BucketsPerDay is the paper's time resolution: 10-minute buckets.
const BucketsPerDay = 144

// StationKind classifies a station row in the call-volume model.
type StationKind int

const (
	// KindRural stations have low background traffic.
	KindRural StationKind = iota
	// KindUrban stations sit at a population center and carry heavy
	// all-day business traffic.
	KindUrban
	// KindSuburban stations flank a center with moderate traffic.
	KindSuburban
	// KindCommuter stations show strong morning/evening rush peaks.
	KindCommuter
)

// CallVolumeConfig parameterizes the synthetic call-volume table.
type CallVolumeConfig struct {
	Stations int // rows; must be positive
	Days     int // columns = Days * BucketsPerDay
	Seed     uint64
	// PopCenters is the number of metropolitan hot spots spread along the
	// station axis. 0 picks max(2, Stations/64).
	PopCenters int
	// MaxShiftBuckets is the time-zone phase shift between the first and
	// last station, in buckets. 0 picks 18 (3 hours of 10-minute buckets,
	// the paper's East/West coast difference). Negative disables.
	MaxShiftBuckets int
	// NoiseFrac is the multiplicative noise level (0.1 = ±10%). Negative
	// disables; 0 picks 0.1.
	NoiseFrac float64
	// Weekend enables a weekly cycle: days 5 and 6 of each 7-day week
	// carry damped business traffic (offices closed), adding the
	// day-of-week structure multi-week clustering picks up on.
	Weekend bool
}

func (c *CallVolumeConfig) fill() error {
	if c.Stations <= 0 || c.Days <= 0 {
		return fmt.Errorf("workload: non-positive call-volume dims (%d stations, %d days)", c.Stations, c.Days)
	}
	if c.PopCenters == 0 {
		c.PopCenters = c.Stations / 64
		if c.PopCenters < 2 {
			c.PopCenters = 2
		}
	}
	if c.PopCenters < 0 || c.PopCenters > c.Stations {
		return fmt.Errorf("workload: %d population centers for %d stations", c.PopCenters, c.Stations)
	}
	if c.MaxShiftBuckets == 0 {
		c.MaxShiftBuckets = 18
	}
	if c.MaxShiftBuckets < 0 {
		c.MaxShiftBuckets = 0
	}
	if c.NoiseFrac == 0 {
		c.NoiseFrac = 0.1
	}
	if c.NoiseFrac < 0 {
		c.NoiseFrac = 0
	}
	return nil
}

// CallVolumeMeta records the ground structure of a generated table, for
// tests and for interpreting Figure 5 renderings.
type CallVolumeMeta struct {
	Centers []int         // station index of each population center
	Kinds   []StationKind // per-station classification
	Shift   []int         // per-station phase shift in buckets
}

// CallVolume generates the synthetic station×time call-volume table.
func CallVolume(cfg CallVolumeConfig) (*table.Table, *CallVolumeMeta, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xca11))
	nS := cfg.Stations
	nT := cfg.Days * BucketsPerDay

	// Place population centers roughly evenly with jitter.
	meta := &CallVolumeMeta{
		Centers: make([]int, cfg.PopCenters),
		Kinds:   make([]StationKind, nS),
		Shift:   make([]int, nS),
	}
	for i := range meta.Centers {
		base := (i*2 + 1) * nS / (2 * cfg.PopCenters)
		jitter := 0
		if span := nS / (4 * cfg.PopCenters); span > 0 {
			jitter = rng.IntN(2*span+1) - span
		}
		c := base + jitter
		if c < 0 {
			c = 0
		}
		if c >= nS {
			c = nS - 1
		}
		meta.Centers[i] = c
	}

	// Per-station intensity from distance to the nearest center, plus the
	// kind classification used by tests and the case study.
	urban := make([]float64, nS)    // business-hours plateau weight
	commuter := make([]float64, nS) // rush-hour peak weight
	background := make([]float64, nS)
	for s := 0; s < nS; s++ {
		dMin := math.Inf(1)
		for _, c := range meta.Centers {
			if d := math.Abs(float64(s - c)); d < dMin {
				dMin = d
			}
		}
		// Spatial profile widths scale with station density.
		coreW := math.Max(2, float64(nS)/(12*float64(cfg.PopCenters)))
		ringW := 3 * coreW
		urban[s] = 2400 * math.Exp(-dMin*dMin/(2*coreW*coreW))
		ring := math.Exp(-(dMin - 2*coreW) * (dMin - 2*coreW) / (2 * ringW * ringW))
		commuter[s] = 900 * ring
		background[s] = 30 + 20*rng.Float64()
		switch {
		case dMin <= coreW:
			meta.Kinds[s] = KindUrban
		case dMin <= 2.5*coreW:
			meta.Kinds[s] = KindSuburban
		case commuter[s] > 300:
			meta.Kinds[s] = KindCommuter
		default:
			meta.Kinds[s] = KindRural
		}
		if nS > 1 {
			meta.Shift[s] = cfg.MaxShiftBuckets * s / (nS - 1)
		}
	}

	t := table.New(nS, nT)
	for s := 0; s < nS; s++ {
		row := t.Row(s)
		shift := meta.Shift[s]
		for x := 0; x < nT; x++ {
			bucket := x % BucketsPerDay
			// Shift the local clock: a station in a later time zone sees
			// the business day start later on the shared absolute axis.
			local := bucket - shift
			weekday := 1.0
			if cfg.Weekend {
				if day := (x / BucketsPerDay) % 7; day >= 5 {
					weekday = 0.25 // offices closed: business traffic damped
				}
			}
			v := background[s] +
				weekday*urban[s]*businessCurve(local) +
				weekday*commuter[s]*rushCurve(local)
			if cfg.NoiseFrac > 0 {
				v *= 1 + cfg.NoiseFrac*rng.NormFloat64()
			}
			if v < 0 {
				v = 0
			}
			row[x] = v
		}
	}
	return t, meta, nil
}

// businessCurve is the 9am–9pm activity plateau in bucket units (paper:
// "access patterns in any area are almost identical from 9am till 9pm",
// negligible before 9am, dropping off gradually towards midnight).
func businessCurve(bucket int) float64 {
	h := hourOf(bucket)
	switch {
	case h < 7:
		return 0.02
	case h < 9:
		return 0.02 + (h-7)/2*0.9 // ramp up 7am–9am
	case h < 21:
		return 1.0 // plateau 9am–9pm
	default:
		return math.Max(0.02, 1.0-(h-21)/3*0.9) // decay 9pm–midnight
	}
}

// rushCurve peaks at the 7–9am and 4–6pm commuter rushes.
func rushCurve(bucket int) float64 {
	h := hourOf(bucket)
	am := math.Exp(-(h - 8) * (h - 8) / 1.2)
	pm := math.Exp(-(h - 17) * (h - 17) / 1.8)
	return am + pm
}

func hourOf(bucket int) float64 {
	b := bucket % BucketsPerDay
	if b < 0 {
		b += BucketsPerDay
	}
	return float64(b) / float64(BucketsPerDay) * 24
}

// sixFractions are the paper's area proportions.
var sixFractions = []float64{1.0 / 4, 1.0 / 4, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 16}

// NumRegions is the number of planted clusters in the SixRegions dataset.
const NumRegions = 6

// SixRegionsConfig parameterizes the planted-clustering dataset.
type SixRegionsConfig struct {
	Rows, Cols int // Rows must be divisible by 16 so the fractions are exact
	Seed       uint64
	// OutlierFrac is the fraction of cells replaced by outliers; 0 picks
	// the paper's 1%. Negative disables outliers.
	OutlierFrac float64
	// OutlierMag is the upper bound of "large" outlier values; 0 picks
	// 60000 (double the largest region mean). The paper's qualitative
	// regime is that a single outlier dominates a whole tile-pair L2
	// distance ("it adds the square of the difference"), i.e.
	// OutlierMag ≳ Δ·√N for band gap Δ and tile size N; callers running
	// scaled-down tiles should scale OutlierMag accordingly (see the
	// fig4b experiment).
	OutlierMag float64
}

// SixRegions holds the generated table plus ground truth.
type SixRegions struct {
	Table *table.Table
	// BandEnd[i] is the first row AFTER region i; region i spans rows
	// [BandEnd[i-1], BandEnd[i]).
	BandEnd [NumRegions]int
	// Means[i] is the uniform-distribution mean used for region i.
	Means [NumRegions]float64
}

// NewSixRegions generates the dataset of Section 4.2: horizontal bands
// with the paper's proportions, values uniform around six distinct means
// in [10000, 30000], and ~1% outliers that are "relatively large or small
// values that were still plausible".
func NewSixRegions(cfg SixRegionsConfig) (*SixRegions, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("workload: non-positive dims %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Rows%16 != 0 {
		return nil, fmt.Errorf("workload: rows %d not divisible by 16 (needed for exact 1/16 bands)", cfg.Rows)
	}
	if cfg.OutlierFrac == 0 {
		cfg.OutlierFrac = 0.01
	}
	if cfg.OutlierFrac < 0 {
		cfg.OutlierFrac = 0
	}
	if cfg.OutlierMag == 0 {
		cfg.OutlierMag = 60000
	}
	if cfg.OutlierMag < 0 {
		return nil, fmt.Errorf("workload: negative outlier magnitude %v", cfg.OutlierMag)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x51_e9104))
	d := &SixRegions{}
	row := 0
	for i, f := range sixFractions {
		row += int(f * float64(cfg.Rows))
		d.BandEnd[i] = row
	}
	// Distinct means spread across [10000, 30000].
	for i := range d.Means {
		d.Means[i] = 10000 + 20000*float64(i)/float64(NumRegions-1)
	}
	const halfWidth = 1800 // uniform half-width; bands stay well separated
	t := table.New(cfg.Rows, cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		region := d.RegionOfRow(r)
		mean := d.Means[region]
		rowData := t.Row(r)
		for c := range rowData {
			rowData[c] = mean + (2*rng.Float64()-1)*halfWidth
		}
	}
	// Outliers: relatively large or small values. "Large" spans
	// [0.75, 1.0]·OutlierMag; "small" sits near zero.
	if cfg.OutlierFrac > 0 {
		nOut := int(cfg.OutlierFrac * float64(cfg.Rows*cfg.Cols))
		data := t.Data()
		for i := 0; i < nOut; i++ {
			idx := rng.IntN(len(data))
			if rng.Float64() < 0.5 {
				data[idx] = (0.75 + 0.25*rng.Float64()) * cfg.OutlierMag
			} else {
				data[idx] = rng.Float64() * 2000 // small: near zero
			}
		}
	}
	d.Table = t
	return d, nil
}

// RegionOfRow returns the ground-truth region of a table row.
func (d *SixRegions) RegionOfRow(r int) int {
	for i, end := range d.BandEnd {
		if r < end {
			return i
		}
	}
	return NumRegions - 1
}

// TileLabels returns the ground-truth region of every tile of g, erroring
// if any tile straddles a region boundary (pick tile heights dividing
// Rows/16 to avoid that).
func (d *SixRegions) TileLabels(g *table.Grid) ([]int, error) {
	labels := make([]int, g.NumTiles())
	for i := range labels {
		rect := g.Rect(i)
		top := d.RegionOfRow(rect.R0)
		bottom := d.RegionOfRow(rect.R0 + rect.Rows - 1)
		if top != bottom {
			return nil, fmt.Errorf("workload: tile %d (%v) straddles regions %d and %d",
				i, rect, top, bottom)
		}
		labels[i] = top
	}
	return labels, nil
}

// Random returns a rows×cols table of N(0, scale) noise — the neutral
// input for micro-benchmarks and property tests.
func Random(rows, cols int, scale float64, seed uint64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, 0x7ab1e))
	t := table.New(rows, cols)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64() * scale
	}
	return t
}
