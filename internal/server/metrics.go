package server

import (
	"cham/internal/obs"
	"cham/internal/wire"
)

// Telemetry handles for the serving tier, resolved at package init so a
// scrape shows the whole family at zero before the first request.
var (
	mConns = obs.GetGauge("cham_server_connections",
		"Open client connections.")
	mMatrices = obs.GetGauge("cham_server_matrices",
		"Registered prepared matrices.")
	mQueueDepth = obs.GetGauge("cham_server_queue_depth",
		"Requests admitted but not yet taken by a batch executor.")
	mApplies = obs.GetCounter("cham_server_applies_total",
		"Apply results sent.")
	mAbandoned = obs.GetCounter("cham_server_abandoned_total",
		"Admitted requests left unanswered because their connection hung up.")
	mBatchSize = obs.GetHistogram("cham_server_batch_size",
		"Live requests per dispatched batch.", obs.ExpBuckets(1, 2, 8))
	mWaitSec = obs.GetHistogram("cham_server_wait_seconds",
		"Admission-to-dispatch queue wait per request.", obs.DefBuckets)
	mServeSec = obs.GetHistogram("cham_server_serve_seconds",
		"Apply service time per request (excludes queue wait).", obs.DefBuckets)
	mBytesRx = obs.GetCounter("cham_server_bytes_rx_total",
		"Frame bytes received from clients.")
	mBytesTx = obs.GetCounter("cham_server_bytes_tx_total",
		"Frame bytes sent to clients.")
	mTilesServed = obs.GetCounter("cham_server_tiles_served_total",
		"Row tiles in the tile-subset results sent.")
	mTilesPrepared = obs.GetCounter("cham_server_tiles_prepared_total",
		"Row tiles prepared lazily on first use.")
)

// mRequests counts inbound frames by message type.
var mRequests = map[wire.MsgType]*obs.Counter{}

// mRejects counts typed rejections by stable reason name (wire.CodeName).
var mRejects = map[string]*obs.Counter{}

func init() {
	for _, t := range []struct {
		t    wire.MsgType
		name string
	}{
		{wire.MsgHello, "hello"},
		{wire.MsgSetupKeys, "setup_keys"},
		{wire.MsgRegisterMatrix, "register_matrix"},
		{wire.MsgApply, "apply"},
		{wire.MsgPing, "ping"},
	} {
		mRequests[t.t] = obs.GetCounter("cham_server_requests_total",
			"Inbound requests by message type.", "type", t.name)
	}
	for _, code := range []uint16{
		wire.CodeBadRequest, wire.CodeOverloaded, wire.CodeUnknownMatrix,
		wire.CodeKeysRequired, wire.CodeKeysConflict, wire.CodeDeadline,
		wire.CodeDraining, wire.CodeParamsMismatch, wire.CodeInternal,
		wire.CodeDegraded, wire.CodeVersionMismatch,
	} {
		name := wire.CodeName(code)
		mRejects[name] = obs.GetCounter("cham_server_rejects_total",
			"Requests rejected, by typed reason.", "reason", name)
	}
}
