// Command tabmine-query is the retrying client for tabmine-serve: it
// issues one distance / nearest / assign query with jittered
// exponential backoff, a retry budget, and Retry-After handling, so a
// shed (503) or timed-out (504) query is re-asked automatically until
// the budget runs out.
//
//	tabmine-query -server http://127.0.0.1:8080 -op distance \
//	    -a 0,0,16,16 -b 32,32,16,16 -mode auto
//	tabmine-query -server http://127.0.0.1:8080 -op nearest \
//	    -q 8,8,8,8 -mode prune -epsilon 0.1 -delta 0.05
//
// The answer is printed as JSON (including the tier tag, so callers
// can see whether the answer was degraded and re-ask with -mode exact
// later). -mode prune (nearest, assign) answers with the exact nearest,
// which meets every (ε, δ), tagged "pruned"; -epsilon/-delta are
// validated by the server for wire compatibility and echoed (negative
// values keep the server defaults), and are scheduled to go with the
// mode. Exit status: 0 on an answer, 1 on failure.
//
// -batch file reads queries as JSON lines ("-" for stdin) and issues
// them as one POST /v1/batch/* request — one line per query, the
// fields of a batch item: {"a":...,"b":...} for distance,
// {"q":...} for nearest and assign. One JSON line is printed per
// query, in input order; per-item failures print {"error": ...} and do
// not abort the rest of the batch. Exit status 0 if every item
// answered, 1 otherwise.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/runctx"
	"repro/internal/server"
	"repro/internal/table"
)

func main() {
	var (
		base     = flag.String("server", "http://127.0.0.1:8080", "server base URL")
		op       = flag.String("op", "distance", "operation: distance | nearest | assign | health")
		rectA    = flag.String("a", "", "first rectangle as row,col,height,width (distance)")
		rectB    = flag.String("b", "", "second rectangle (distance)")
		rectQ    = flag.String("q", "", "query rectangle (nearest, assign)")
		mode     = flag.String("mode", server.ModeAuto, "accuracy mode: auto | exact | sketch | prune (nearest, assign)")
		epsilon  = flag.Float64("epsilon", -1, "mode=prune ε ≥ 0, validated and echoed: the answer is the exact nearest, which meets every (ε, δ); goes with the mode (negative = server default)")
		delta    = flag.Float64("delta", -1, "mode=prune δ in (0,1), validated and echoed: the answer is the exact nearest, which meets every (ε, δ); goes with the mode (negative = server default)")
		attempts = flag.Int("attempts", 5, "max tries per query")
		baseWait = flag.Duration("base-delay", 50*time.Millisecond, "backoff base delay")
		budget   = flag.Duration("budget", 15*time.Second, "total retry-wait budget")
		seed     = flag.Uint64("seed", 0, "jitter seed (0 = default)")
		timeout  = flag.Duration("timeout", time.Minute, "overall deadline for the query including retries")
		batch    = flag.String("batch", "", "JSON-lines file of batch items (\"-\" = stdin); issues one POST /v1/batch/<op>")
	)
	flag.Parse()

	ctx, stop := runctx.WithSignals(*timeout)
	defer stop()

	c, err := client.New(client.Config{
		BaseURL: *base, MaxAttempts: *attempts, BaseDelay: *baseWait,
		Budget: *budget, Seed: *seed,
	})
	fatal(err)

	if *batch != "" {
		os.Exit(runBatch(ctx, c, *op, *mode, *batch))
	}

	var res any
	switch *op {
	case "distance":
		a, err := server.ParseRect(*rectA)
		fatal(err)
		b, err := server.ParseRect(*rectB)
		fatal(err)
		res, err = c.Distance(ctx, a, b, *mode)
		fatal(err)
	case "nearest":
		q, err := server.ParseRect(*rectQ)
		fatal(err)
		if *mode == server.ModePrune {
			res, err = c.NearestPruned(ctx, q, *epsilon, *delta)
		} else {
			res, err = c.Nearest(ctx, q, *mode)
		}
		fatal(err)
	case "assign":
		q, err := server.ParseRect(*rectQ)
		fatal(err)
		if *mode == server.ModePrune {
			res, err = c.AssignPruned(ctx, q, *epsilon, *delta)
		} else {
			res, err = c.Assign(ctx, q, *mode)
		}
		fatal(err)
	case "health":
		var err error
		res, err = c.Health(ctx)
		fatal(err)
	default:
		fatal(fmt.Errorf("unknown -op %q", *op))
	}
	out, err := json.Marshal(res)
	fatal(err)
	fmt.Println(string(out))
}

// runBatch reads JSON-lines batch items from path, issues them as one
// batched request, and prints one JSON line per item in input order.
// Returns the process exit code: 0 only if every item answered.
func runBatch(ctx context.Context, c *client.Client, op, mode, path string) int {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		fatal(err)
		defer f.Close()
		in = f
	}
	type line struct {
		A string `json:"a"`
		B string `json:"b"`
		Q string `json:"q"`
	}
	var as, bs, qs []table.Rect
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			fatal(fmt.Errorf("batch line %d: %v", lineNo, err))
		}
		if op == "distance" {
			a, err := server.ParseRect(l.A)
			fatal(err)
			b, err := server.ParseRect(l.B)
			fatal(err)
			as, bs = append(as, a), append(bs, b)
		} else {
			q, err := server.ParseRect(l.Q)
			fatal(err)
			qs = append(qs, q)
		}
	}
	fatal(sc.Err())

	// One answer per query, in order. Per-item errors print as
	// {"error": ...} lines and flip the exit code without hiding the
	// items that did answer.
	emit := func(res any, err error) bool {
		if err != nil {
			out, merr := json.Marshal(map[string]string{"error": err.Error()})
			fatal(merr)
			fmt.Println(string(out))
			return false
		}
		out, merr := json.Marshal(res)
		fatal(merr)
		fmt.Println(string(out))
		return true
	}
	ok := true
	switch op {
	case "distance":
		items, err := c.DistanceBatch(ctx, as, bs, mode)
		fatal(err)
		for _, it := range items {
			ok = emit(it.Result, it.Err) && ok
		}
	case "nearest":
		items, err := c.NearestBatch(ctx, qs, mode)
		fatal(err)
		for _, it := range items {
			ok = emit(it.Result, it.Err) && ok
		}
	case "assign":
		items, err := c.AssignBatch(ctx, qs, mode)
		fatal(err)
		for _, it := range items {
			ok = emit(it.Result, it.Err) && ok
		}
	default:
		fatal(fmt.Errorf("-batch supports -op distance, nearest, or assign, not %q", op))
	}
	if !ok {
		return 1
	}
	return 0
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-query: %v\n", err)
		os.Exit(1)
	}
}
