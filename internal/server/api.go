package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Wire contract shared by the server handlers and internal/client. All
// response bodies are deterministic functions of (snapshot, query): no
// timestamps or per-request identifiers, so the drain tests can assert
// byte-identical answers before and during shutdown.

// Tiers tag every answer with the accuracy path that produced it.
const (
	// TierExact answers from the raw table: the exact Lp distance.
	TierExact = "exact"
	// TierSketch answers from O(k) compound dyadic sketches — the
	// 4(1+ε)-approximation of Theorem 6 — used when requested, when the
	// deadline budget is too tight for the exact path, or when the
	// server is saturated.
	TierSketch = "sketch"
	// TierPruned tags a mode=prune answer. It is the exact engine's
	// answer — TierExact's bytes but for the tag and the prune block —
	// kept because clients key on the tag; it goes with the mode.
	TierPruned = "pruned"
)

// Degradation reasons reported alongside a sketch-tier answer to an
// "auto" query, so clients know whether re-asking later may yield an
// exact answer.
const (
	// ReasonRequested: the client asked for the sketch tier itself.
	ReasonRequested = "requested"
	// ReasonLoad: admission occupancy was above the degradation
	// threshold, so the exact path was skipped to shed work.
	ReasonLoad = "load"
	// ReasonDeadline: the remaining request deadline could not fit the
	// exact path (up front, or it timed out mid-computation and the
	// O(k) sketch answer was substituted).
	ReasonDeadline = "deadline"
)

// Modes select the accuracy path of a query.
const (
	// ModeAuto (the default) answers exactly when load and deadline
	// allow, degrading to the sketch tier otherwise.
	ModeAuto = "auto"
	// ModeExact insists on the exact tier; under a tight deadline the
	// request fails with 504 instead of degrading.
	ModeExact = "exact"
	// ModeSketch asks for the O(k) sketch tier outright.
	ModeSketch = "sketch"
	// ModePrune (nearest/assign only) answers with the exact nearest,
	// which meets every (epsilon, delta), tagged TierPruned. The epsilon
	// and delta query parameters are validated for wire compatibility and
	// echoed; /v1/distance rejects the mode with 400. The mode and its
	// knobs are scheduled to go.
	ModePrune = "prune"
)

// MarginExact names the progressive scan's guarantee in PruneStats: the
// answer is byte-identical to the full exact scan.
const MarginExact = "exact"

// DistanceResult answers /v1/distance.
type DistanceResult struct {
	Distance float64 `json:"distance"`
	Tier     string  `json:"tier"`
	Degraded bool    `json:"degraded"`
	Reason   string  `json:"reason,omitempty"`
}

// PruneStats reports what the progressive scan behind a nearest/assign
// answer evaluated and avoided. Like every response field it is a
// deterministic function of (snapshot, query) — worker count and load
// never change it.
type PruneStats struct {
	Margin  string  `json:"margin"`            // MarginExact
	Epsilon float64 `json:"epsilon,omitempty"` // mode=prune's knob, echoed
	Delta   float64 `json:"delta,omitempty"`   // mode=prune's knob, echoed

	Candidates        int   `json:"candidates"`         // entered the search
	ScreenSurvivors   int   `json:"screen_survivors"`   // reached exact refinement: all of them
	PrunedCandidates  int   `json:"pruned_candidates"`  // 0; goes with mode=prune
	RefineAbandoned   int   `json:"refine_abandoned"`   // ruled out by a lower bound, or cut off mid-refinement
	LanesEvaluated    int64 `json:"lanes_evaluated"`    // 0; goes with mode=prune
	CellsEvaluated    int64 `json:"cells_evaluated"`    // marginal coordinates compared + table cells read
	CoordinatesTotal  int64 `json:"coordinates_total"`  // full-scan cost of the query
	PrunedCoordinates int64 `json:"pruned_coordinates"` // total − cells, ≥ 0
}

// NearestResult answers /v1/nearest: the grid tile nearest to the query
// rectangle (excluding the query's own position).
type NearestResult struct {
	Tile     int         `json:"tile"` // grid tile index
	Rect     string      `json:"rect"` // the tile as "row,col,height,width"
	Distance float64     `json:"distance"`
	Tier     string      `json:"tier"`
	Degraded bool        `json:"degraded"`
	Reason   string      `json:"reason,omitempty"`
	Prune    *PruneStats `json:"prune,omitempty"`
}

// AssignResult answers /v1/assign: the cluster whose medoid tile is
// nearest to the query rectangle.
type AssignResult struct {
	Cluster  int         `json:"cluster"`
	Medoid   int         `json:"medoid"` // grid tile index of the cluster medoid
	Distance float64     `json:"distance"`
	Tier     string      `json:"tier"`
	Degraded bool        `json:"degraded"`
	Reason   string      `json:"reason,omitempty"`
	Prune    *PruneStats `json:"prune,omitempty"`
}

// Health answers /healthz. TileRows/TileCols expose the grid query
// geometry so load generators (tabmine-replay) can synthesize valid
// tile-sized queries without out-of-band configuration.
type Health struct {
	Status   string `json:"status"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	Tiles    int    `json:"tiles"`
	Clusters int    `json:"clusters"`
	TileRows int    `json:"tile_rows"`
	TileCols int    `json:"tile_cols"`
	Reloads  int64  `json:"reloads"` // snapshot swaps since startup
	// Epoch is the shard-map epoch, filled only by a coordinator (a
	// plain server has no fleet and omits it).
	Epoch int64 `json:"epoch,omitempty"`
}

// Ready answers /readyz: 200/"ready" once a snapshot is being served,
// 503/"booting" before (see Server.New on the nil-snapshot boot state).
type Ready struct {
	Status     string `json:"status"`
	Generation int64  `json:"generation,omitempty"`
	// Epoch is the shard-map epoch (coordinator only, like Health.Epoch).
	Epoch int64 `json:"epoch,omitempty"`
}

// errorBody is the JSON shape of every non-2xx answer and of every
// failed batch item.
type errorBody struct {
	Error string `json:"error"`
}

// ShardInfo answers /v1/shardinfo: the cheap self-description a
// scatter-gather coordinator needs to place this server in a shard map
// and to verify that sketches from different shards are mutually
// comparable (equal p, k, seed — the pool's random matrices depend only
// on those, never on column position, and p picks the estimator, so
// equal parameters make cross-shard sketches merge-compatible).
type ShardInfo struct {
	Ready    bool `json:"ready"` // a snapshot is being served
	BaseCol  int  `json:"base_col"`
	Rows     int  `json:"rows"`
	Cols     int  `json:"cols"`
	TileRows int  `json:"tile_rows"`
	TileCols int  `json:"tile_cols"`
	Tiles    int  `json:"tiles"`
	Clusters int  `json:"clusters"`

	P    float64 `json:"p"`
	K    int     `json:"k"`
	Seed uint64  `json:"seed"`

	// Generation identifies the snapshot this answer (and every query
	// answer carrying a generation echo) came from; it increments on
	// every Swap/Publish. A coordinator uses it to detect stale shards
	// after a publish and to assert that one sub-query never mixes
	// snapshot generations.
	Generation int64 `json:"generation"`

	// SubProtocol is the sub-query frame version this shard speaks
	// (SubFrameVersion). A coordinator keeps a shard that speaks another
	// out of its map, as it does one with other sketch parameters.
	SubProtocol int `json:"sub_protocol"`

	// MaxInflight and MaxQueue are this shard's admission sizes; a
	// coordinator admits what its shards sum to.
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
}

// BatchItem is one query inside a BatchRequest: a/b for distance
// batches, q for nearest and assign batches, in the same
// "row,col,height,width" encoding the GET endpoints take.
type BatchItem struct {
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	Q string `json:"q,omitempty"`
}

// BatchRequest is the body of POST /v1/batch/{distance,nearest,assign}.
// Mode, timeout, and the prune knobs are batch-level: the whole batch
// is decoded, validated and admitted once (at weight len(items)). Tier
// decisions remain per item, so an auto batch can degrade mid-flight.
type BatchRequest struct {
	// Mode is the accuracy mode applied to every item (default auto).
	Mode string `json:"mode,omitempty"`
	// TimeoutMS bounds the whole batch (default DefaultTimeout, capped
	// at 30s), like the timeout_ms query parameter.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Epsilon and Delta tune mode=prune (defaults DefaultPruneEpsilon /
	// DefaultPruneDelta).
	Epsilon *float64 `json:"epsilon,omitempty"`
	Delta   *float64 `json:"delta,omitempty"`

	Items []BatchItem `json:"items"`
}

// BatchResponse answers /v1/batch/*. Items[i] is either the exact JSON
// object the corresponding single-query GET endpoint would return for
// item i (byte-identical under equal load), or an errorBody when that
// item alone failed — one malformed item never fails its batch.
type BatchResponse struct {
	Items    []json.RawMessage `json:"items"`
	Served   int               `json:"served"`   // items answered
	Failed   int               `json:"failed"`   // items that returned errors
	Degraded int               `json:"degraded"` // items answered degraded (load/deadline)

	// wire, on a response under construction (NewBatchResponse), is its
	// encoding so far: the envelope's opening and the items Item put, which
	// Items are views of, until WriteJSON closes it and sends it.
	wire *frameBuf
}

// FormatRect renders a rectangle in the query-parameter encoding
// "row,col,height,width" accepted by ParseRect.
func FormatRect(r table.Rect) string {
	return fmt.Sprintf("%d,%d,%d,%d", r.R0, r.C0, r.Rows, r.Cols)
}

// ParseRect parses the "row,col,height,width" encoding: four
// comma-separated integers, each optionally signed and surrounded by
// spaces. It parses in place — a batch request parses up to 256 of these.
func ParseRect(s string) (table.Rect, error) {
	if strings.Count(s, ",") != 3 {
		return table.Rect{}, fmt.Errorf("rect %q: want row,col,height,width", s)
	}
	var vals [4]int
	rest := s
	for i := range vals {
		var field string
		field, rest, _ = strings.Cut(rest, ",")
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return table.Rect{}, fmt.Errorf("rect %q: %v", s, err)
		}
		vals[i] = v
	}
	return table.Rect{R0: vals[0], C0: vals[1], Rows: vals[2], Cols: vals[3]}, nil
}
