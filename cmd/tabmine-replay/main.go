// Command tabmine-replay drives a live tabmine-serve or tabmine-coord
// instance with a zipf-skewed, open-loop stream of single GET queries
// and reports as JSON how many were served, shed, timed out, failed,
// degraded and partial, and which shard-map epochs the answers carried.
//
//	tabmine-replay -server http://127.0.0.1:8080 -n 600 -rate 400 \
//	    -ops nearest:3,distance:2,assign:1 -mode sketch -seed 7 -out replay.json
//
// Arrivals follow a deterministic seeded Poisson schedule that does not
// slow down when the server does (open loop): arrivals past the
// in-flight cap are dropped and counted as overflow, and no request is
// ever retried — a shed is a measurement. The same -seed replays the
// identical query stream. Exit status: 0 on a completed replay, 1 on
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/replay"
	"repro/internal/runctx"
	"repro/internal/server"
)

func main() {
	var (
		base      = flag.String("server", "http://127.0.0.1:8080", "server or coordinator base URL")
		n         = flag.Int("n", 1000, "total queries to issue")
		rate      = flag.Float64("rate", 500, "target arrival rate in queries/second")
		opsFlag   = flag.String("ops", "nearest:1", "op mixture op:weight,... over nearest | assign | distance")
		mode      = flag.String("mode", server.ModeAuto, "accuracy mode sent with every query")
		seed      = flag.Uint64("seed", 1, "workload and schedule seed")
		timeoutMS = flag.Int("timeout-ms", 0, "per-request timeout_ms parameter (0 = server default)")
		out       = flag.String("out", "", "write the report JSON here instead of stdout")
		quiet     = flag.Bool("quiet", false, "suppress progress lines on stderr")
		deadline  = flag.Duration("deadline", 10*time.Minute, "overall deadline for the replay")
	)
	flag.Parse()

	ops, err := replay.ParseOps(*opsFlag)
	fatal(err)
	ctx, stop := runctx.WithSignals(*deadline)
	defer stop()

	cfg := replay.Config{
		BaseURL: *base, Queries: *n, Rate: *rate, Ops: ops,
		Mode: *mode, TimeoutMS: *timeoutMS, Seed: *seed,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := replay.Run(ctx, cfg)
	fatal(err)

	enc, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	enc = append(enc, '\n')
	if *out != "" {
		fatal(os.WriteFile(*out, enc, 0o644))
		if !*quiet {
			fmt.Fprintf(os.Stderr, "replay: report written to %s\n", *out)
		}
		return
	}
	os.Stdout.Write(enc)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-replay: %v\n", err)
		os.Exit(1)
	}
}
