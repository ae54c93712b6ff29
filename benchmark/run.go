package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/server"
)

// A run is build → warm-up pass → rounds, three times over, each build
// from scratch on a fresh fixture; the traced run is one build and
// alternating untraced and traced rounds. Every run has one busy thread
// (GOMAXPROCS=1) and one closed-loop client; on ingest_live a paced
// reader runs beside the pusher.
const (
	buildsPerRun = 3
	tracedRounds = 6
)

// roundsFor turns the contract's --seconds into a number of rounds. A
// round is a fixed amount of work sized to take about 0.6 s on the
// reference box, so a run of s seconds is 5s/3 rounds, rounded down to
// a multiple of the three builds. The work never adapts to the clock.
func roundsFor(seconds int) int {
	return max(seconds*5/9, 1) * buildsPerRun
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnvironment() environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// report is everything one run measured. The contract's result line is
// cut from it; -compare and -selfcheck read whole reports.
type report struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Smoke    bool        `json:"smoke,omitempty"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`

	SetupS       []float64 `json:"setup_s"`        // every build of the run
	RoundS       []float64 `json:"round_s"`        // every measured round
	RoundCalibMS []float64 `json:"round_calib_ms"` // calibration kernel before each round
	QuietRoundS  float64   `json:"quiet_round_s"`  // one round's slots at their quiet times, summed
	HeadSamples  int       `json:"headline_samples"`
	TailSamples  int       `json:"tail_samples"`
	P99MS        float64   `json:"p99_ms"`

	Accuracy accuracy    `json:"accuracy"`
	Prune    pruneCounts `json:"prune_per_pass"`
	Build    buildStats  `json:"build"`
	// UnevenRounds lists the rounds whose counter deltas differ from the
	// first round's (ingest_live), with the deltas.
	UnevenRounds  []string           `json:"uneven_rounds,omitempty"`
	RoundCounters map[string]int64   `json:"round_counters,omitempty"`
	SelfTimeUS    map[string]float64 `json:"median_self_us,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`

	pruneVaries bool // a pass's prune counts differed from the first pass's
}

// procUsage reads what the OS knows about this process.
func procUsage() (cpuS, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// collect runs the collector until the heap holds only what is live.
func collect() {
	runtime.GC()
	runtime.GC()
}

func liveHeapMiB() float64 {
	collect()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// options of one run.
type runOptions struct {
	workload string
	seed     uint64
	rounds   int // measured rounds of an untraced run
	traced   bool
	smoke    bool
	outDir   string
}

func newInstance(o runOptions, roundsPerBuild int, tr *tracer) (instance, error) {
	sz := fullSize
	if o.smoke {
		sz = smokeSize
	}
	if o.workload == "ingest_live" {
		root := filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
		return newIngestInstance(sz, o.seed, roundsPerBuild, root, tr)
	}
	for i := range specs {
		if specs[i].name == o.workload {
			return newCycleInstance(&specs[i], sz, o.seed, tr)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, 0, len(specs)+1)
	for i := range specs {
		names = append(names, specs[i].name)
	}
	return append(names, "ingest_live")
}

// runWorkload performs one run and returns its report. An error means
// the run could not be carried out; wrong answers are in the report.
func runWorkload(o runOptions) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	builds, perBuild := buildsPerRun, o.rounds/buildsPerRun
	if o.traced {
		tr = newTracer()
		builds, perBuild = 1, 2*tracedRounds
		if o.smoke {
			perBuild = 4
		}
	}
	t0 := time.Now()
	in, err := newInstance(o, perBuild, tr)
	if err != nil {
		return nil, err
	}
	defer in.close()
	generateS := time.Since(t0).Seconds()

	rep := &report{
		Workload: o.workload, Seed: o.seed, Smoke: o.smoke, Traced: o.traced,
		Env: currentEnvironment(),
	}
	before := readSystem()
	var rounds []*roundResult
	var tracedIdx []int // which rounds recorded spans (traced run)
	var referenceS float64
	for b := 0; b < builds; b++ {
		setup, err := in.build()
		if err != nil {
			return nil, fmt.Errorf("build %d: %w", b+1, err)
		}
		rep.SetupS = append(rep.SetupS, setup)
		if b == 0 {
			t0 := time.Now()
			if err := in.prepare(); err != nil {
				return nil, fmt.Errorf("reference answers: %w", err)
			}
			referenceS = generateS + time.Since(t0).Seconds()
			collect()
		}
		if err := in.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for r := 0; r < perBuild; r++ {
			if o.traced {
				tr.on.Store(r%2 == 1) // untraced and traced rounds alternate
			}
			t0 := time.Now()
			calibKernel()
			rep.RoundCalibMS = append(rep.RoundCalibMS, ms(time.Since(t0)))
			var m0, m1 runtime.MemStats
			if o.traced {
				runtime.ReadMemStats(&m0)
			}
			res, err := in.round()
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", len(rounds)+1, err)
			}
			if o.traced {
				runtime.ReadMemStats(&m1)
				res.mallocs = m1.Mallocs - m0.Mallocs
			}
			if tr.active() {
				tracedIdx = append(tracedIdx, len(rounds))
			}
			rounds = append(rounds, res)
			rep.RoundS = append(rep.RoundS, res.seconds)
		}
		if o.traced {
			tr.on.Store(false)
		}
	}
	heap := liveHeapMiB() // fixture live, end of the last round
	after := readSystem()
	acc, err := in.accuracy()
	if err != nil {
		return nil, err
	}
	rep.Accuracy, rep.Build = acc, in.stats()

	e2e, err := endToEnd(rep, rounds, heap)
	if err != nil {
		return nil, err
	}
	rep.EndToEnd = e2e
	layers := cheapLayers(rep, rounds, before, after, referenceS)
	if o.traced {
		spans := tr.resolve()
		rep.TraceFile = filepath.Join(o.outDir, "trace-"+o.workload+".json")
		if err := writeSpans(rep.TraceFile, spans); err != nil {
			return nil, err
		}
		view := newTraceView(spans)
		rep.SelfTimeUS = view.medianSelfUS()
		if err := tracedLayers(in, view, rounds, tracedIdx, layers); err != nil {
			return nil, err
		}
	}
	rep.PerLayer = withUnits(layers)

	rep.checkCounters(rounds)
	t := in.counts()
	rep.Attempted, rep.Failed, rep.Failures = t.attempted, t.failed, t.failures
	rep.judge(before, after)
	return rep, nil
}

// endToEnd computes the gated metrics. throughput is the items of one
// round over the round's quiet time, the sum over its slots of the mean
// of each slot's quiet samples; p50_ms is the median of the headline
// slots' quiet samples, pooled.
func endToEnd(rep *report, rounds []*roundResult, heapMiB float64) (map[string]metricValue, error) {
	lat, head, tail := make([][]float64, len(rounds)), make([][]float64, len(rounds)), make([][]float64, len(rounds))
	for i, r := range rounds {
		lat[i], head[i], tail[i] = r.lat, r.head, r.tail
	}
	for _, q := range quietSamples(lat) {
		rep.QuietRoundS += mean(q) / 1e3
	}
	hs := pooled(quietSamples(head))
	rep.HeadSamples = len(hs)
	p50, ok50 := percentile(hs, 0.50)
	if !rep.Smoke && !rep.Traced && !ok50 {
		return nil, fmt.Errorf("too few quiet latency samples (%d headline)", len(hs))
	}
	// The tail is a per-layer metric (README "Demoted"), taken over the
	// whole run: reported when ten samples lie beyond it, 0 otherwise.
	ts := pooled(tail)
	rep.TailSamples = len(ts)
	if p99, ok := percentile(ts, 0.99); ok {
		rep.P99MS = p99
	}
	setup := math.Inf(1)
	for _, s := range rep.SetupS {
		setup = math.Min(setup, s)
	}
	return map[string]metricValue{
		"setup_s":      {setup, "s"},
		"throughput":   {float64(rounds[0].items) / rep.QuietRoundS, "items/s"},
		"p50_ms":       {p50, "ms"},
		"live_heap_mb": {heapMiB, "MiB"},
		"answer_ratio": {rep.Accuracy.AnswerRatio, "ratio"},
	}, nil
}

// systemSnap is every process-wide counter a run reads twice.
type systemSnap struct {
	server        server.Stats
	coord         coord.Stats
	shardFailures int64
	mem           runtime.MemStats
	cpuS          float64
}

func readSystem() systemSnap {
	s := systemSnap{server: server.ReadStats(), coord: coord.ReadStats(), shardFailures: expvarMapSum("tabmine_coord_shard_failures")}
	runtime.ReadMemStats(&s.mem)
	s.cpuS, _ = procUsage()
	return s
}

// checkCounters compares the rounds' counter deltas (ingest_live) and
// prune counts (the HTTP workloads) with the first round's.
func (rep *report) checkCounters(rounds []*roundResult) {
	if len(rounds) == 0 {
		return
	}
	rep.Prune, rep.RoundCounters = rounds[0].prune, rounds[0].counters
	for i, r := range rounds[1:] {
		if r.prune != rounds[0].prune {
			rep.pruneVaries = true
			rep.UnevenRounds = append(rep.UnevenRounds, fmt.Sprintf("round %d: prune counts %+v, first round %+v", i+2, r.prune, rounds[0].prune))
		}
		for name, v := range r.counters {
			if v != rounds[0].counters[name] {
				rep.UnevenRounds = append(rep.UnevenRounds, fmt.Sprintf("round %d: %s %d, first round %d", i+2, name, v, rounds[0].counters[name]))
			}
		}
	}
}

// judge decides Correct: no failed operation, no shed, timed-out or
// load-degraded answer anywhere, prune counts that repeat, and on
// serve_refine the prune tier's recall at its advertised 1 − δ.
func (rep *report) judge(before, after systemSnap) {
	var why []string
	if rep.Failed > 0 {
		why = append(why, fmt.Sprintf("%d of %d operations failed", rep.Failed, rep.Attempted))
	}
	if rep.Attempted == 0 {
		why = append(why, "no operation attempted")
	}
	s0, s1 := before.server, after.server
	if n := (s1.Shed - s0.Shed) + (s1.Degraded - s0.Degraded) + (s1.TimedOut - s0.TimedOut) + (s1.IngestShed - s0.IngestShed); n > 0 {
		why = append(why, fmt.Sprintf("%d shed, degraded or timed-out answers", n))
	}
	c0, c1 := before.coord, after.coord
	if n := (c1.Partial - c0.Partial) + (c1.Unavailable - c0.Unavailable) + (after.shardFailures - before.shardFailures); n > 0 {
		why = append(why, fmt.Sprintf("%d partial or unavailable coordinator answers or shard failures", n))
	}
	if rep.pruneVaries {
		why = append(why, "prune counts differ between passes over one cycle (see uneven_rounds)")
	}
	if rep.Workload == "serve_refine" && rep.Accuracy.Recall < 1-server.DefaultPruneDelta {
		why = append(why, fmt.Sprintf("prune recall %.4f below 1 − δ = %.2f", rep.Accuracy.Recall, 1-server.DefaultPruneDelta))
	}
	rep.Failures = append(rep.Failures, why...)
	rep.Correct = len(why) == 0
}

// resultLine is the contract's last line of standard output.
func (rep *report) resultLine() ([]byte, error) {
	metrics := rep.EndToEnd
	if rep.Traced {
		metrics = rep.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}
