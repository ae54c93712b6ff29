package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// gate is one end-to-end metric: which way is better, and the share of
// the parent's median by which it may get worse before a change counts
// as a regression. The three times carry the contract's widest bound: in
// a noisy hour of the shared box their quartile spread over ten seeds
// reaches a third of it (README "Where the bounds come from"). The other
// two are three times the widest spread seen (baseline/BASELINE.md).
// BENCHMARK.json carries the same table; a test keeps the two equal.
type gate struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

var gates = []gate{
	{"setup_s", "s", false, 0.25},
	{"throughput", "items/s", true, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"live_heap_mb", "MiB", false, 0.03},
	{"answer_ratio", "ratio", false, 0.09},
}

// verdicts of one metric on one workload, change against parent.
const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictGain       = "gain"
	verdictUnchanged  = "unchanged"
)

type comparison struct {
	Workload, Metric string
	Bound            float64
	A, B             quartileSummary
	Worse            float64 // (B − A) / A in the worse direction; negative = better
	WinShare         float64 // share of pairs the change wins, ties left out
	Pairs            int
	Verdict          string
}

type quartileSummary struct {
	N           int
	Q1, Med, Q3 float64
}

func summarize(values []float64) quartileSummary {
	s := quartileSummary{N: len(values)}
	switch len(values) {
	case 0:
	case 1:
		s.Q1, s.Med, s.Q3 = values[0], values[0], values[0]
	default:
		s.Q1, s.Med, s.Q3 = quartiles(values)
	}
	return s
}

// judgeMetric applies the rules of README "Comparing two commits":
// a spread of the parent wider than the bound leaves the metric
// unresolved unless every run of the change beats every run of the
// parent; otherwise a median worse by more than the bound is a
// regression; a gain needs nine tenths of the pairs (ties counting for
// neither) and medians further apart than the parent's own quartiles.
func judgeMetric(g gate, a, b []float64) comparison {
	c := comparison{Metric: g.name, Bound: g.bound, A: summarize(a), B: summarize(b)}
	if len(a) == 0 || len(b) == 0 {
		c.Verdict = verdictUnresolved
		return c
	}
	better := func(x, y float64) bool { // x better than y
		if g.higher {
			return x > y
		}
		return x < y
	}
	if c.A.Med != 0 {
		c.Worse = (c.B.Med - c.A.Med) / c.A.Med
		if g.higher {
			c.Worse = -c.Worse
		}
	}
	wins, losses := 0, 0
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	if wins+losses > 0 {
		c.WinShare = float64(wins) / float64(wins+losses)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	iqrA := c.A.Q3 - c.A.Q1
	gain := c.Pairs > 0 && float64(wins) >= 0.9*float64(c.Pairs) && abs(c.B.Med-c.A.Med) > iqrA && c.Worse < 0
	switch {
	case c.A.Med != 0 && iqrA/abs(c.A.Med) > g.bound && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Worse > g.bound:
		c.Verdict = verdictRegression
	case gain:
		c.Verdict = verdictGain
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareSets judges every end-to-end metric of every workload present
// in both sets, in run order (run i of a pairs with run i of b).
func compareSets(a, b []*report) []comparison {
	byWorkload := func(reps []*report) map[string][]*report {
		m := map[string][]*report{}
		for _, r := range reps {
			if !r.Traced {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ma, mb := byWorkload(a), byWorkload(b)
	var out []comparison
	for _, w := range workloadNames() {
		if len(ma[w]) == 0 || len(mb[w]) == 0 {
			continue
		}
		for _, g := range gates {
			values := func(reps []*report) []float64 {
				var vs []float64
				for _, r := range reps {
					if v, ok := r.EndToEnd[g.name]; ok {
						vs = append(vs, v.Value)
					}
				}
				return vs
			}
			c := judgeMetric(g, values(ma[w]), values(mb[w]))
			c.Workload = w
			out = append(out, c)
		}
	}
	return out
}

func renderComparisons(cs []comparison) (string, bool) {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tparent q1/med/q3 (n)\tchange q1/med/q3 (n)\tworse by\twin share\tverdict")
	regressed := false
	for _, c := range cs {
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.5g / %.5g / %.5g (%d)\t%.5g / %.5g / %.5g (%d)\t%+.2f%%\t%.0f%% of %d\t%s\n",
			c.Workload, c.Metric, 100*c.Bound,
			c.A.Q1, c.A.Med, c.A.Q3, c.A.N, c.B.Q1, c.B.Med, c.B.Q3, c.B.N,
			100*c.Worse, 100*c.WinShare, c.Pairs, c.Verdict)
		regressed = regressed || c.Verdict == verdictRegression
	}
	tw.Flush()
	return sb.String(), regressed
}

func compareFiles(pathA, pathB string) (string, bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return "", false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return "", false, err
	}
	cs := compareSets(a, b)
	if len(cs) == 0 {
		return "", false, fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	table, regressed := renderComparisons(cs)
	return table, regressed, nil
}

// selfCheck measures the benchmark against itself: two sets of runs of
// this tree, alternating A B A B so that a slow phase of the machine
// falls on both, each run a process of its own as the driver's are.
// The sets, the verdict table and the environment go to the baseline
// directory. The check fails when the two medians of a metric lie
// further apart than its bound: then the benchmark, not the code, is
// too noisy for its own gate. An "unresolved" row is the honest report
// of a slow phase of the machine that fell into one workload's runs.
func selfCheck(seed uint64, seconds int, stdout, stderr io.Writer) error {
	const runs = 10 // per set and workload: ten pairs, as every comparison needs
	dir := baselineDir
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(dir, fmt.Sprintf("seed%d-", seed))
	sets := [2]string{prefix + "a.json", prefix + "b.json"}
	for _, s := range sets {
		if err := os.Remove(s); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for _, w := range workloadNames() {
		for i := 0; i < 2*runs; i++ {
			cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-append", sets[i%2])
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			fmt.Fprintf(stderr, "selfcheck: %s seed %d run %d/%d (set %c)\n", w, seed, i/2+1, runs, 'a'+i%2)
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w, i+1, err)
			}
		}
	}
	a, err := readReports(sets[0])
	if err != nil {
		return err
	}
	b, err := readReports(sets[1])
	if err != nil {
		return err
	}
	cs := compareSets(a, b)
	table, _ := renderComparisons(cs)
	var calib []float64
	for _, r := range append(a, b...) {
		calib = append(calib, r.PerLayer["bench.calib_ms"].Value)
	}
	env := struct {
		Env        environment  `json:"env"`
		Seed       uint64       `json:"seed"`
		Seconds    int          `json:"seconds"`
		RunsPerSet int          `json:"runs_per_set"`
		CalibMS    float64      `json:"bench_calib_ms_median"`
		Verdicts   []comparison `json:"verdicts"`
	}{a[0].Env, seed, seconds, runs, median(calib), cs}
	if err := writeJSON(prefix+"verdict.json", env); err != nil {
		return err
	}
	if err := os.WriteFile(prefix+"verdict.txt", []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Fprint(stdout, table)
	for _, c := range cs {
		if abs(c.Worse) > c.Bound {
			return fmt.Errorf("%s/%s: two sets of runs of the same code differ by %.1f%%, bound %.0f%%",
				c.Workload, c.Metric, 100*c.Worse, 100*c.Bound)
		}
	}
	return nil
}
