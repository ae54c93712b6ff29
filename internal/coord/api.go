package coord

import (
	"repro/internal/server"
)

// Coordinator wire contract. A distance answer is a server.DistanceResult:
// each operand lies in one shard, so it is never partial. The scan
// results EMBED the corresponding single-server result, so the embedded
// fields inline into the JSON object in the same order, and the
// coordinator-only extras all carry omitempty. Consequence: on an
// all-healthy fleet the coordinator's answer carries exactly the fields,
// indices, tiers and tags the single-process server would produce for
// the same query, with
// distances equal up to each shard's FFT accumulation order (~1e-12
// relative) — the merge-fidelity property the chaos suite asserts —
// while a degraded fleet's answers grow honest partial tags instead of
// silently narrowing their meaning.

// Reasons the coordinator adds to the server's requested/load/deadline.
const (
	// ReasonCrossShard tags a sketch-tier answer to a mode=auto query
	// whose operands live on different shards: the exact tier would need
	// raw rows from two processes, so the sketch tier is not a
	// degradation but the only distributed path. Degraded stays false —
	// re-asking later cannot yield an exact answer.
	ReasonCrossShard = "cross_shard"
	// ReasonPartial tags an answer computed without one or more
	// unreachable shards (partial=allow). Degraded is true: re-asking
	// after the fleet recovers may change the answer.
	ReasonPartial = "partial"
)

// NearestResult answers the coordinator's /v1/nearest. Partial is set
// when unreachable shards were excluded; Missing lists the global column
// ranges ("lo-hi", half-open) that could not be consulted. Tile and Rect
// are GLOBAL: the shard-local best indices are translated through the
// shard map before merging, so a client sees exactly the index an
// unsharded server over the whole table would report.
type NearestResult struct {
	server.NearestResult
	Partial bool     `json:"partial,omitempty"`
	Missing []string `json:"missing_cols,omitempty"`
}

// AssignResult answers the coordinator's /v1/assign. Clusterings are
// shard-local (each shard clusters its own tiles), so Cluster is a
// local id qualified by Shard (the index of the owning shard range,
// omitted when 0) and Medoid is the GLOBAL tile index of that cluster's
// medoid.
type AssignResult struct {
	server.AssignResult
	Shard   int      `json:"shard,omitempty"`
	Partial bool     `json:"partial,omitempty"`
	Missing []string `json:"missing_cols,omitempty"`
}
