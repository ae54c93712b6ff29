package server

import "expvar"

// Process-global serving counters, published on /debug/vars. expvar
// registration is once-per-process, so the counters aggregate across
// server instances (tests assert deltas, not absolutes).
var (
	mRequests = expvar.NewInt("tabmine_requests_total")
	mServed   = expvar.NewInt("tabmine_requests_served")
	mShed     = expvar.NewInt("tabmine_requests_shed")
	mDegraded = expvar.NewInt("tabmine_requests_degraded")
	mTimedOut = expvar.NewInt("tabmine_requests_timedout")
	mReloads  = expvar.NewInt("tabmine_snapshot_reloads")

	mBatchRequests   = expvar.NewInt("tabmine_batch_requests")
	mBatchItems      = expvar.NewInt("tabmine_batch_items")
	mBatchItemErrors = expvar.NewInt("tabmine_batch_item_errors")

	mShardSubqueries    = expvar.NewInt("tabmine_shard_subqueries")
	mShardSubqueryItems = expvar.NewInt("tabmine_shard_subquery_items")
	mSubConns           = expvar.NewInt("tabmine_shard_sub_conns") // gauge

	mIngest         = expvar.NewInt("tabmine_ingest_records")
	mIngestAccepted = expvar.NewInt("tabmine_ingest_accepted")
	mIngestShed     = expvar.NewInt("tabmine_ingest_shed")
	mIngestErrors   = expvar.NewInt("tabmine_ingest_errors")

	mPrunedCoordinates = expvar.NewInt("tabmine_pruned_coordinates")
	mScreenSurvivors   = expvar.NewInt("tabmine_screen_survivors")

	mScanCandidates = expvar.NewInt("tabmine_sketch_scan_candidates")
	mScanSelections = expvar.NewInt("tabmine_sketch_scan_selections")
)

// Stats is a point-in-time read of the serving counters.
type Stats struct {
	Requests int64 // queries received (before admission)
	Served   int64 // 2xx answers
	Shed     int64 // 503s from a full admission queue
	Degraded int64 // sketch-tier answers to auto queries (load/deadline)
	TimedOut int64 // 504s (deadline expired queued or mid-computation)
	Reloads  int64 // snapshot swaps

	BatchRequests   int64 // POST /v1/batch/* requests received
	BatchItems      int64 // items across admitted batches
	BatchItemErrors int64 // items that answered with a per-item error

	ShardSubqueries    int64 // sub-query frames received
	ShardSubqueryItems int64 // items across admitted sub-query frames
	SubConns           int64 // frame connections held now

	IngestRecords  int64 // POST /v1/ingest bodies received
	IngestAccepted int64 // records durably appended
	IngestShed     int64 // 503s from a full ingest backlog
	IngestErrors   int64 // malformed records / ingest failures

	PrunedCoordinates int64 // full-scan coordinates the progressive scans avoided
	ScreenSurvivors   int64 // candidates that reached exact refinement

	// Sketch-tier nearest/assign scans: candidates compared, and those
	// whose estimate was computed in full (a median selected) because
	// counting lanes could not rule them out against the running best.
	// A ratio near 1 means counting has stopped working on this data.
	SketchScanCandidates int64
	SketchScanSelections int64
}

// ReadStats samples the process-global counters.
func ReadStats() Stats {
	return Stats{
		Requests: mRequests.Value(),
		Served:   mServed.Value(),
		Shed:     mShed.Value(),
		Degraded: mDegraded.Value(),
		TimedOut: mTimedOut.Value(),
		Reloads:  mReloads.Value(),

		BatchRequests:   mBatchRequests.Value(),
		BatchItems:      mBatchItems.Value(),
		BatchItemErrors: mBatchItemErrors.Value(),

		ShardSubqueries:    mShardSubqueries.Value(),
		ShardSubqueryItems: mShardSubqueryItems.Value(),
		SubConns:           mSubConns.Value(),

		IngestRecords:  mIngest.Value(),
		IngestAccepted: mIngestAccepted.Value(),
		IngestShed:     mIngestShed.Value(),
		IngestErrors:   mIngestErrors.Value(),

		PrunedCoordinates: mPrunedCoordinates.Value(),
		ScreenSurvivors:   mScreenSurvivors.Value(),

		SketchScanCandidates: mScanCandidates.Value(),
		SketchScanSelections: mScanSelections.Value(),
	}
}
