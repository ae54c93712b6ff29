// Command benchmark is the repository's benchmark: four closed-loop
// workloads over fixtures built in-process from the public packages and
// driven over loopback HTTP, every answer checked, every metric printed
// by name and unit. See README.md in this directory.
//
//	go run ./benchmark --workload serve_sketch --seed 1 --seconds 18 --trace 0
//	go run ./benchmark --workload coord_fanout --seed 1 --trace 1
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -selfcheck -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds: 30 rounds of about
// 0.6 s over three builds (README "Noise").
const defaultSeconds = 18

// Everything the program writes goes under these two directories of
// the checkout it is run from.
var (
	outDir      = filepath.Join("benchmark", "out")      // reports, span files, scratch stores
	baselineDir = filepath.Join("benchmark", "baseline") // -selfcheck's sets and verdicts
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve_sketch, serve_refine, coord_fanout or ingest_live")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", defaultSeconds, "run length: five rounds of fixed work per three seconds, in threes")
	trace := fs.Int("trace", 0, "1 = the traced run: one serial client, spans written to benchmark/out/trace-<workload>.json, per-layer metrics printed")
	smoke := fs.Bool("smoke", false, "tiny tables, one round per build, checker on (what the tests run)")
	appendTo := fs.String("append", "", "also append the run's report to this JSON array file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two report sets: -compare parent.json change.json")
	selfcheck := fs.Bool("selfcheck", false, "run two alternating sets of runs of this tree, compare them, write benchmark/baseline/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		table, regressed, err := compareFiles(fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, table)
		if regressed {
			return 1
		}
		return 0
	case *selfcheck:
		if err := selfCheck(*seed, *seconds, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	// One busy thread: a neighbour of the host slows whichever core it
	// shares (README "Noise"), and work spread over two threads is hit
	// on either and waits for the slower.
	runtime.GOMAXPROCS(1)
	o := runOptions{
		workload: *workload, seed: *seed, rounds: roundsFor(*seconds),
		traced: *trace != 0, smoke: *smoke, outDir: outDir,
	}
	if *smoke {
		o.rounds = buildsPerRun // one round per build
	}
	rep, err := runWorkload(o)
	// The scratch stores of ingest_live live under the out directory.
	_ = os.RemoveAll(filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, *trace)
	if err := writeJSON(filepath.Join(outDir, name), rep); err != nil {
		return fail(err)
	}
	if *appendTo != "" {
		if err := appendReport(*appendTo, rep); err != nil {
			return fail(err)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "benchmark:", f)
	}
	for _, u := range rep.UnevenRounds {
		fmt.Fprintln(stderr, "benchmark: uneven:", u)
	}
	line, err := rep.resultLine()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// appendReport adds rep to the JSON array in path, creating it if need
// be. The array is written one report a line: sets are committed under
// baseline/, and indented they would be several times the size.
func appendReport(path string, rep *report) error {
	reps, err := readReports(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	buf := []byte("[")
	for i, r := range append(reps, rep) {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(append(buf, '\n'), line...)
	}
	return os.WriteFile(path, append(buf, "\n]\n"...), 0o644)
}
