// Command tabmine-gendata generates synthetic tabular datasets and writes
// them as binary table files (or CSV) for use with tabmine-serve,
// tabmine-store, and external tools.
//
// Usage:
//
//	tabmine-gendata -kind callvolume -stations 192 -days 4 -o calls.tabf
//	tabmine-gendata -kind sixregions -rows 128 -cols 128 -o planted.tabf
//	tabmine-gendata -kind random -rows 64 -cols 64 -o noise.csv -csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	var (
		kind     = flag.String("kind", "callvolume", "dataset kind: callvolume | sixregions | random")
		out      = flag.String("o", "", "output path (required)")
		csvOut   = flag.Bool("csv", false, "write CSV instead of the binary format")
		compress = flag.Bool("gzip", false, "gzip-compress the binary payload")
		seed     = flag.Uint64("seed", 42, "generator seed")

		stations = flag.Int("stations", 192, "callvolume: number of stations (rows)")
		days     = flag.Int("days", 1, "callvolume: number of stitched days (cols = 144/day)")
		centers  = flag.Int("centers", 0, "callvolume: population centers (0 = auto)")

		rows = flag.Int("rows", 128, "sixregions/random: table rows")
		cols = flag.Int("cols", 128, "sixregions/random: table cols")
		outl = flag.Float64("outliers", 0.01, "sixregions: outlier fraction")

		scale = flag.Float64("scale", 1000, "random: noise standard deviation")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tabmine-gendata: -o output path is required")
		flag.Usage()
		os.Exit(2)
	}

	var (
		tb  *table.Table
		err error
	)
	switch *kind {
	case "callvolume":
		tb, _, err = workload.CallVolume(workload.CallVolumeConfig{
			Stations: *stations, Days: *days, Seed: *seed, PopCenters: *centers,
		})
	case "sixregions":
		var d *workload.SixRegions
		d, err = workload.NewSixRegions(workload.SixRegionsConfig{
			Rows: *rows, Cols: *cols, Seed: *seed, OutlierFrac: *outl,
		})
		if err == nil {
			tb = d.Table
		}
	case "random":
		tb = workload.Random(*rows, *cols, *scale, *seed)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-gendata: %v\n", err)
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-gendata: %v\n", err)
		os.Exit(1)
	}
	if *csvOut {
		err = tabfile.WriteCSV(f, tb)
	} else {
		err = tabfile.Write(f, tb, *compress)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-gendata: %v\n", err)
		os.Exit(1)
	}
	s := tb.Summarize()
	fmt.Printf("wrote %s: %dx%d cells (min %.1f, mean %.1f, max %.1f)\n",
		*out, tb.Rows(), tb.Cols(), s.Min, s.Mean, s.Max)
}
