// Command tabmine-sketch estimates the Lp distance between two subtables
// of a table file using stable sketches, and compares against the exact
// computation.
//
// Rectangles are given as "row,col,height,width". Example:
//
//	tabmine-sketch -in calls.tabf -p 1 -k 256 \
//	    -a 0,0,16,144 -b 64,144,16,144
//
// With -pool, a dyadic sketch pool is built instead of a single-size
// sketcher, demonstrating arbitrary-rectangle compound sketches
// (rectangle sizes may then differ from powers of two).
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/lpnorm"
	"repro/internal/runctx"
	"repro/internal/server"
	"repro/internal/tabfile"
	"repro/internal/table"
)

func main() {
	var (
		in       = flag.String("in", "", "input table file (required)")
		fftStats = flag.Bool("fft-stats", false, "report forward table spectra computed (shared-spectrum engine diagnostics)")
		p        = flag.Float64("p", 1, "Lp exponent in (0, 2]")
		k        = flag.Int("k", 256, "sketch entries")
		rectA    = flag.String("a", "", "first rectangle as row,col,height,width (required)")
		rectB    = flag.String("b", "", "second rectangle (required, same size as -a)")
		seed     = flag.Uint64("seed", 42, "sketch seed")
		usePool  = flag.Bool("pool", false, "use a dyadic compound-sketch pool (Theorem 6)")
		workers  = flag.Int("workers", 0, "worker goroutines for sketch construction (0 = all cores)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	)
	flag.Parse()
	// ^C (or the timeout) cancels the pool build mid-flight.
	ctx, stop := runctx.WithSignals(*timeout)
	defer stop()
	if *in == "" || *rectA == "" || *rectB == "" {
		fmt.Fprintln(os.Stderr, "tabmine-sketch: -in, -a and -b are required")
		flag.Usage()
		os.Exit(2)
	}
	a, err := server.ParseRect(*rectA)
	fatal(err)
	b, err := server.ParseRect(*rectB)
	fatal(err)
	if a.Rows != b.Rows || a.Cols != b.Cols {
		fatal(fmt.Errorf("rectangles must have equal dimensions: %v vs %v", a, b))
	}

	tb, err := tabfile.ReadFile(*in)
	fatal(err)
	for _, r := range []table.Rect{a, b} {
		if !r.In(tb.Rows(), tb.Cols()) {
			fatal(fmt.Errorf("rect %v outside table %dx%d", r, tb.Rows(), tb.Cols()))
		}
	}

	lp, err := lpnorm.NewP(*p)
	fatal(err)
	spectraBefore := fft.TableSpectrumCount()
	t0 := time.Now()
	exact := lp.Dist(tb.Linearize(a, nil), tb.Linearize(b, nil))
	exactTime := time.Since(t0)

	var est float64
	var prepTime, queryTime time.Duration
	if *usePool {
		t0 = time.Now()
		// Build only the dyadic size the query rectangles need (a full
		// canonical pool costs O(log²N) sizes).
		ei := bits.Len(uint(a.Rows)) - 1
		if 1<<ei > tb.Rows()/2 && a.Rows < tb.Rows() {
			ei--
		}
		ej := bits.Len(uint(a.Cols)) - 1
		if 1<<ej > tb.Cols()/2 && a.Cols < tb.Cols() {
			ej--
		}
		pool, err := core.NewPool(tb, *p, *k, *seed, core.PoolOptions{
			MinLogRows: ei, MaxLogRows: ei, MinLogCols: ej, MaxLogCols: ej,
			Workers: *workers, Context: ctx,
		})
		fatal(err)
		prepTime = time.Since(t0)
		t0 = time.Now()
		est, err = pool.Distance(a, b)
		fatal(err)
		queryTime = time.Since(t0)
		fmt.Printf("mode: dyadic pool (%d sizes, exact-dyadic rect: %v)\n",
			pool.NumSizes(), pool.IsExact(a))
	} else {
		t0 = time.Now()
		sk, err := core.NewSketcher(*p, *k, a.Rows, a.Cols, *seed)
		fatal(err)
		sk.SetWorkers(*workers)
		cache := core.NewCache(tb, sk)
		prepTime = time.Since(t0)
		t0 = time.Now()
		est = cache.Distance(a, b)
		queryTime = time.Since(t0)
		fmt.Println("mode: direct sketches (on demand)")
	}

	fmt.Printf("L%.4g distance %v ↔ %v over %dx%d table\n", *p, a, b, tb.Rows(), tb.Cols())
	fmt.Printf("  exact   : %12.4f  (%v)\n", exact, exactTime)
	fmt.Printf("  sketched: %12.4f  (prep %v, query %v, k=%d)\n", est, prepTime, queryTime, *k)
	if exact > 0 {
		fmt.Printf("  ratio   : %12.4f\n", est/exact)
	}
	if *fftStats {
		// The shared-spectrum engine computes one forward table FFT per
		// table regardless of how many dyadic sizes the pool covers.
		fmt.Printf("  spectra : %d forward table FFT(s) computed\n",
			fft.TableSpectrumCount()-spectraBefore)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-sketch: %v\n", err)
		os.Exit(1)
	}
}
