// Package replay is the traffic source of the sharding and handoff
// drills: it drives a live tabmine-serve or tabmine-coord instance with
// a zipf-skewed, open-loop stream of single GET queries drawn from a
// weighted op mixture, and counts what the serving layer did with it —
// served, shed, timed out, failed, degraded, partial, and the shard-map
// epochs it saw. Latency is the gated benchmark's business (benchmark/),
// not this package's.
//
// Open loop means arrivals follow a deterministic seeded Poisson
// schedule that does NOT slow down when the server does; arrivals that
// would exceed the in-flight cap are dropped and counted (overflow)
// instead of silently converting the driver into a closed loop. The
// HTTP client never retries: a shed is a measurement, not an error to
// paper over.
//
// The workload is reproducible end to end: tile popularity (zipf
// rank → grid tile), the op of each query and arrival times all derive
// from Config.Seed, each from its own PCG stream, so changing the op
// mixture never perturbs the tile or arrival streams.
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/table"
)

const (
	// zipfS is the zipf skew of tile popularity.
	zipfS = 1.2
	// maxOutstanding caps concurrently in-flight requests; arrivals past
	// it are dropped and counted as overflow.
	maxOutstanding = 64
)

// Config tunes one replay run.
type Config struct {
	// BaseURL locates the server or coordinator, e.g.
	// "http://127.0.0.1:8080".
	BaseURL string
	// Queries is the total number of queries to issue (default 1000).
	Queries int
	// Rate is the target arrival rate in queries/second (default 500).
	// Inter-arrival times are exponential (Poisson arrivals).
	Rate float64
	// Ops is the weighted op mixture every query draws from (default
	// nearest only); see ParseOps.
	Ops []OpWeight
	// Mode is the accuracy mode sent with every query (default auto).
	Mode string
	// TimeoutMS is the per-request timeout_ms parameter (0 = server
	// default).
	TimeoutMS int
	// Seed makes the schedule and workload deterministic (0 means 1).
	Seed uint64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.BaseURL == "" {
		return fmt.Errorf("replay: BaseURL required")
	}
	if c.Queries <= 0 {
		c.Queries = 1000
	}
	if c.Rate <= 0 {
		c.Rate = 500
	}
	if len(c.Ops) == 0 {
		c.Ops = []OpWeight{{Op: "nearest", Weight: 1}}
	}
	for _, ow := range c.Ops {
		if err := ow.check(); err != nil {
			return err
		}
	}
	if c.Mode == "" {
		c.Mode = server.ModeAuto
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// OpWeight is one component of the op mixture.
type OpWeight struct {
	Op     string  `json:"op"`
	Weight float64 `json:"weight"`
}

func (ow OpWeight) check() error {
	switch ow.Op {
	case "nearest", "assign", "distance":
	default:
		return fmt.Errorf("replay: unknown op %q (want nearest, assign or distance)", ow.Op)
	}
	if !(ow.Weight > 0) || math.IsInf(ow.Weight, 1) {
		return fmt.Errorf("replay: op %q weight %v must be positive and finite", ow.Op, ow.Weight)
	}
	return nil
}

// ParseOps parses an op mixture written "op:weight,op:weight,...", e.g.
// "nearest:3,distance:2,assign:1". An unknown op, a weight that is not a
// positive number, or an empty list is an error: a typo must never
// silently change a drill's traffic.
func ParseOps(s string) ([]OpWeight, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("replay: empty op list")
	}
	var ops []OpWeight
	for _, part := range strings.Split(s, ",") {
		op, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("replay: op %q has no :weight", part)
		}
		weight, err := strconv.ParseFloat(w, 64)
		if err != nil {
			return nil, fmt.Errorf("replay: op %q: bad weight %q", op, w)
		}
		ow := OpWeight{Op: op, Weight: weight}
		if err := ow.check(); err != nil {
			return nil, err
		}
		ops = append(ops, ow)
	}
	return ops, nil
}

// Report is the JSON result of one replay run.
type Report struct {
	Ops      []OpWeight `json:"ops"`
	Mode     string     `json:"mode"`
	Seed     uint64     `json:"seed"`
	Tiles    int        `json:"tiles"` // distinct tiles in the popularity law
	Queries  int        `json:"queries"`
	Served   int64      `json:"served"`    // answered 200
	Shed     int64      `json:"shed"`      // shed with 503
	TimedOut int64      `json:"timed_out"` // failed with 504
	Errors   int64      `json:"errors"`    // any other status, or a transport failure
	Overflow int64      `json:"overflow"`  // dropped at the open-loop cap
	Degraded int64      `json:"degraded"`  // served on a degraded tier
	Partial  int64      `json:"partial"`   // served with missing shard coverage (coordinator)
	// A coordinator stamps every answer with its shard-map epoch
	// (X-Tabmine-Epoch); a plain server stamps none. EpochChanges is the
	// number of distinct epochs observed minus one, so a handoff drill can
	// assert the cutover happened under this run's load.
	EpochMin     int64   `json:"epoch_min,omitempty"`
	EpochMax     int64   `json:"epoch_max,omitempty"`
	EpochChanges int     `json:"epoch_changes"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// Run replays one workload against cfg.BaseURL and reports what the
// server did with it.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	hc := &http.Client{} // never retries: a shed is a measurement
	geom, err := discover(ctx, hc, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	paths := buildWorkload(&cfg, geom)
	cfg.Logf("replay: %d queries against %d tiles (%.0f qps)", len(paths), geom.tiles, cfg.Rate)

	rep := &Report{Ops: cfg.Ops, Mode: cfg.Mode, Seed: cfg.Seed, Tiles: geom.tiles, Queries: cfg.Queries}
	var (
		served, shed, timedOut, errs, overflow, degraded, partial atomic.Int64
		wg                                                        sync.WaitGroup
		epochMu                                                   sync.Mutex
		epochs                                                    = map[int64]bool{}
	)
	sem := make(chan struct{}, maxOutstanding)
	arrival := rand.New(rand.NewPCG(cfg.Seed, 0x6172726976616c)) // arrival schedule stream
	start := time.Now()
	elapsed := 0.0 // scheduled seconds since start

	for _, path := range paths {
		elapsed += arrival.ExpFloat64() / cfg.Rate
		if d := time.Until(start.Add(time.Duration(elapsed * float64(time.Second)))); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			overflow.Add(1) // open loop: drop, never queue
			continue
		}
		wg.Add(1)
		go func(path string) {
			defer func() { <-sem; wg.Done() }()
			out := issue(ctx, hc, cfg.BaseURL+path)
			switch out.status {
			case http.StatusOK:
				served.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			case http.StatusGatewayTimeout:
				timedOut.Add(1)
			default:
				errs.Add(1)
			}
			if out.degraded {
				degraded.Add(1)
			}
			if out.partial {
				partial.Add(1)
			}
			if out.epoch > 0 { // absent header; real epochs start at 1
				epochMu.Lock()
				epochs[out.epoch] = true
				epochMu.Unlock()
			}
		}(path)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep.ElapsedSec = time.Since(start).Seconds()
	rep.Served, rep.Shed, rep.TimedOut = served.Load(), shed.Load(), timedOut.Load()
	rep.Errors, rep.Overflow = errs.Load(), overflow.Load()
	rep.Degraded, rep.Partial = degraded.Load(), partial.Load()
	for e := range epochs {
		if rep.EpochMin == 0 || e < rep.EpochMin {
			rep.EpochMin = e
		}
		rep.EpochMax = max(rep.EpochMax, e)
	}
	if len(epochs) > 0 {
		rep.EpochChanges = len(epochs) - 1
	}
	return rep, nil
}

// geometry is the query shape discovered from /healthz.
type geometry struct {
	gridCols           int // tiles per row of the grid
	tileRows, tileCols int
	tiles              int
}

func discover(ctx context.Context, hc *http.Client, baseURL string) (*geometry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replay: healthz: %w", err)
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return nil, fmt.Errorf("replay: healthz: %w", err)
	}
	if h.TileRows <= 0 || h.TileCols <= 0 || h.Tiles <= 0 {
		return nil, fmt.Errorf("replay: server reports no tile grid (tiles=%d, tile=%dx%d)",
			h.Tiles, h.TileRows, h.TileCols)
	}
	return &geometry{
		gridCols: h.Cols / h.TileCols,
		tileRows: h.TileRows, tileCols: h.TileCols,
		tiles: h.Tiles,
	}, nil
}

// buildWorkload materializes the deterministic query stream as request
// paths: zipf ranks map to grid tiles through a seeded shuffle, so
// popularity is skewed but not grid-corner-biased, and each query's op
// comes from the mixture's own stream.
func buildWorkload(cfg *Config, g *geometry) []string {
	wl := rand.New(rand.NewPCG(cfg.Seed, 0x776f726b6c6f6164)) // workload stream
	zipf := rand.NewZipf(wl, zipfS, 1, uint64(g.tiles-1))
	perm := wl.Perm(g.tiles)
	tileRect := func() string {
		t := perm[int(zipf.Uint64())]
		return server.FormatRect(table.Rect{
			R0: (t / g.gridCols) * g.tileRows, C0: (t % g.gridCols) * g.tileCols,
			Rows: g.tileRows, Cols: g.tileCols,
		})
	}
	mix := rand.New(rand.NewPCG(cfg.Seed, 0x6f702d6d6978)) // op stream
	var total float64
	for _, ow := range cfg.Ops {
		total += ow.Weight
	}
	drawOp := func() string {
		x := mix.Float64() * total
		for _, ow := range cfg.Ops {
			if x -= ow.Weight; x < 0 {
				return ow.Op
			}
		}
		return cfg.Ops[len(cfg.Ops)-1].Op
	}

	suffix := "&mode=" + cfg.Mode
	if cfg.TimeoutMS > 0 {
		suffix += fmt.Sprintf("&timeout_ms=%d", cfg.TimeoutMS)
	}
	paths := make([]string, cfg.Queries)
	for i := range paths {
		if op := drawOp(); op == "distance" {
			paths[i] = "/v1/distance?a=" + tileRect() + "&b=" + tileRect() + suffix
		} else {
			paths[i] = "/v1/" + op + "?q=" + tileRect() + suffix
		}
	}
	return paths
}

// outcome is what one query came back with: its HTTP status (0 for a
// transport failure), its degraded and partial tags, and the epoch stamp
// (0 when absent).
type outcome struct {
	status            int
	degraded, partial bool
	epoch             int64
}

// issue performs one GET without retries and classifies its answer.
func issue(ctx context.Context, hc *http.Client, url string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return outcome{}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	out := outcome{status: resp.StatusCode}
	// A coordinator stamps every answer — success or error — with its
	// shard-map epoch; absent (plain server) parses to 0.
	if h := resp.Header.Get("X-Tabmine-Epoch"); h != "" {
		out.epoch, _ = strconv.ParseInt(h, 10, 64)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		out.status = 0
		return out
	}
	if out.status != http.StatusOK {
		return out
	}
	var tag struct {
		Degraded bool `json:"degraded"`
		Partial  bool `json:"partial"`
	}
	if json.Unmarshal(body, &tag) == nil {
		out.degraded, out.partial = tag.Degraded, tag.Partial
	}
	return out
}
