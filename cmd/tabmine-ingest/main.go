// Command tabmine-ingest pushes day-column records into a running
// tabmine-serve (POST /v1/ingest), or writes them to a file for replay.
// Each record is one day: a label plus a table whose columns extend the
// store's time axis.
//
//	tabmine-ingest -addr http://127.0.0.1:8080 -label d2026-08-06 -table day.tabf
//	tabmine-ingest -addr ... -label d00 -random 64x16 -seed 7
//
// Backpressure is part of the protocol: a 503 answer means the server's
// ingest backlog is full, and the push is retried under internal/client's
// ingest policy — Retry-After honored, -retries attempts at most, first
// included — while any other failure returns at once, because the record
// may have been stored. The record lands in the server's write-ahead
// store before the 200 arrives; the response JSON reports how many pushed
// days are still pending sketch maintenance.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/ingest"
	"repro/internal/runctx"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server base URL (e.g. http://127.0.0.1:8080)")
		out      = flag.String("out", "", "write the framed record to this file instead of pushing")
		label    = flag.String("label", "", "day label (required; printable ASCII, no separators)")
		in       = flag.String("table", "", "day table file (.tabf, or .csv with -csv)")
		csvIn    = flag.Bool("csv", false, "parse -table as CSV")
		random   = flag.String("random", "", "synthesize a random ROWSxCOLS day instead of reading -table")
		seed     = flag.Uint64("seed", 1, "seed for -random")
		scale    = flag.Float64("scale", 100, "value scale for -random")
		compress = flag.Bool("compress", false, "gzip-compress the record payload")
		retries  = flag.Int("retries", 5, "attempts, first included, while the server sheds with 503 + Retry-After")
		timeout  = flag.Duration("timeout", 30*time.Second, "deadline for the push, retries included")
	)
	flag.Parse()
	if *label == "" {
		fatal(fmt.Errorf("-label is required"))
	}
	if (*addr == "") == (*out == "") {
		fatal(fmt.Errorf("exactly one of -addr and -out is required"))
	}

	tb, err := loadDay(*in, *csvIn, *random, *scale, *seed)
	fatal(err)

	var rec bytes.Buffer
	fatal(ingest.WriteRecord(&rec, *label, tb, *compress))

	if *out != "" {
		fatal(os.WriteFile(*out, rec.Bytes(), 0o644))
		fmt.Printf("wrote %s: day %q, %dx%d\n", *out, *label, tb.Rows(), tb.Cols())
		return
	}

	c, err := client.New(client.Config{
		BaseURL: strings.TrimSuffix(*addr, "/"), MaxAttempts: max(*retries, 1),
	})
	fatal(err)
	ctx, stop := runctx.WithSignals(*timeout)
	defer stop()
	res, err := c.Ingest(ctx, rec.Bytes())
	fatal(err)
	line, err := json.Marshal(res)
	fatal(err)
	fmt.Printf("%s\n", line)
}

func loadDay(in string, csvIn bool, random string, scale float64, seed uint64) (*table.Table, error) {
	if random != "" {
		if in != "" {
			return nil, fmt.Errorf("-table and -random are mutually exclusive")
		}
		rows, cols, ok := strings.Cut(random, "x")
		r, err1 := strconv.Atoi(rows)
		c, err2 := strconv.Atoi(cols)
		if !ok || err1 != nil || err2 != nil || r <= 0 || c <= 0 {
			return nil, fmt.Errorf("bad -random %q, want ROWSxCOLS", random)
		}
		return workload.Random(r, c, scale, seed), nil
	}
	if in == "" {
		return nil, fmt.Errorf("one of -table and -random is required")
	}
	if csvIn {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tabfile.ReadCSV(f)
	}
	return tabfile.ReadFile(in)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-ingest: %v\n", err)
		os.Exit(1)
	}
}
