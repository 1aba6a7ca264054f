package cluster

import "cham/internal/obs"

// Telemetry for the scatter/gather tier, in the same style as the
// cham_server_* family: resolved at init so scrapes show zeros.
var (
	mNodes = obs.GetGauge("cham_cluster_nodes",
		"Shard nodes in the ring.")
	mScatters = obs.GetCounter("cham_cluster_scatters_total",
		"Apply requests fanned out across shards.")
	mShardOK = obs.GetCounter("cham_cluster_shard_requests_total",
		"Tile-subset requests answered by a shard.", "outcome", "ok")
	mShardErr = obs.GetCounter("cham_cluster_shard_requests_total",
		"Tile-subset requests answered by a shard.", "outcome", "error")
	mHedges = obs.GetCounter("cham_cluster_hedges_total",
		"Extra shard attempts launched: budgeted straggler hedges plus unbudgeted failovers.")
	mHedgesDenied = obs.GetCounter("cham_cluster_hedges_denied_total",
		"Scatter legs whose straggler hedge was withheld because the hedge budget was empty at expiry.")
	mHedgeCancels = obs.GetCounter("cham_cluster_hedge_cancels_total",
		"Shard attempts cancelled because another replica answered first.")
	mHedgeThreshold = obs.GetGauge("cham_cluster_hedge_threshold_seconds",
		"Straggler threshold of the most recent scatter leg: max(floor, tiles x p95 per-tile latency of its owner).")
	mRescatters = obs.GetCounter("cham_cluster_rescatters_total",
		"Second-pass re-scatters after a tile group failed all hedged attempts.")
	mDegraded = obs.GetCounter("cham_cluster_degraded_total",
		"Applies that ended degraded (tiles uncovered after re-scatter).")
	mJoins = obs.GetCounter("cham_cluster_joins_total",
		"Nodes joined via registry warm-up transfer.")
	mGatherSec = obs.GetHistogram("cham_cluster_gather_seconds",
		"Scatter-to-gather wall time per apply.", obs.DefBuckets)
)
