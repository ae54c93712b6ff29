package coord

import "expvar"

// Process-global coordinator counters on /debug/vars, following the
// tabmine_* naming of internal/server. The per-shard maps are keyed by
// endpoint base URL, so one glance at /debug/vars shows which shard is
// absorbing hedges or striking out.
var (
	mRequests    = expvar.NewInt("tabmine_coord_requests_total")
	mServed      = expvar.NewInt("tabmine_coord_requests_served")
	mUnavailable = expvar.NewInt("tabmine_coord_requests_unavailable") // 503s
	mTimedOut    = expvar.NewInt("tabmine_coord_requests_timedout")
	mPartial     = expvar.NewInt("tabmine_coord_partial_answers")

	mShardRequests = expvar.NewMap("tabmine_coord_shard_requests")
	mShardFailures = expvar.NewMap("tabmine_coord_shard_failures")

	mEjections  = expvar.NewInt("tabmine_coord_ejections")
	mReadmits   = expvar.NewInt("tabmine_coord_readmissions")
	mHedges     = expvar.NewInt("tabmine_coord_hedges")
	mHedgeWins  = expvar.NewInt("tabmine_coord_hedge_wins")
	mMapReloads = expvar.NewInt("tabmine_coord_shardmap_reloads")

	// Membership observability: the current shard-map epoch, fleet
	// composition by health state, and how often the fleet was edited.
	mEpoch         = expvar.NewInt("tabmine_coord_epoch")
	mRegisters     = expvar.NewInt("tabmine_coord_registers")
	mDeregisters   = expvar.NewInt("tabmine_coord_deregisters")
	mIngestProxied = expvar.NewInt("tabmine_coord_ingest_proxied")

	mEndpoints = expvar.NewMap("tabmine_coord_endpoints")
	gHealthy   = new(expvar.Int)
	gProbation = new(expvar.Int)
	gDead      = new(expvar.Int)
)

func init() {
	mEndpoints.Set("healthy", gHealthy)
	mEndpoints.Set("probation", gProbation)
	mEndpoints.Set("dead", gDead)
}

// Stats is a point-in-time read of the coordinator counters.
type Stats struct {
	Requests    int64 // queries received
	Served      int64 // 2xx answers (partial included)
	Unavailable int64 // 503s (no live endpoints / denied partials / a full admission queue)
	TimedOut    int64 // 504s and batch items whose deadline expired
	Partial     int64 // partial-tagged 2xx answers

	Ejections    int64 // healthy/probation -> dead transitions
	Readmissions int64 // dead -> probation transitions
	Hedges       int64 // hedged sub-queries fired
	HedgeWins    int64 // hedges that produced the winning answer
	MapReloads   int64 // shard-map rebuilds that changed the map

	Epoch         int64 // current shard-map epoch
	Registers     int64 // runtime endpoint registrations
	Deregisters   int64 // runtime endpoint deregistrations
	IngestProxied int64 // ingest requests proxied to the owning shard

	EndpointsHealthy   int64
	EndpointsProbation int64
	EndpointsDead      int64
}

// ReadStats samples the process-global counters.
func ReadStats() Stats {
	return Stats{
		Requests:    mRequests.Value(),
		Served:      mServed.Value(),
		Unavailable: mUnavailable.Value(),
		TimedOut:    mTimedOut.Value(),
		Partial:     mPartial.Value(),

		Ejections:    mEjections.Value(),
		Readmissions: mReadmits.Value(),
		Hedges:       mHedges.Value(),
		HedgeWins:    mHedgeWins.Value(),
		MapReloads:   mMapReloads.Value(),

		Epoch:         mEpoch.Value(),
		Registers:     mRegisters.Value(),
		Deregisters:   mDeregisters.Value(),
		IngestProxied: mIngestProxied.Value(),

		EndpointsHealthy:   gHealthy.Value(),
		EndpointsProbation: gProbation.Value(),
		EndpointsDead:      gDead.Value(),
	}
}
