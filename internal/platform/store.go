package platform

import (
	"context"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/truth"
)

// Store is the narrow, context-first surface the platform serves. Two
// implementations ship with the package — LocalStore, the mutex'd
// in-memory state (optionally wrapped by Durability), and RemoteStore, a
// Client-backed view of another node — and internal/platform/shard adds a
// consistent-hash router that composes N of them into one. Server speaks
// only this interface, so a single durable node and a multi-shard router
// serve the identical /v1 wire API.
//
// Every method takes the request context: an expired deadline refuses the
// operation before any durable or remote work begins. Implementations
// must be safe for concurrent use.
type Store interface {
	// Tasks returns the published tasks.
	Tasks(ctx context.Context) ([]mcs.Task, error)
	// Submit records one observation for an account. Each account may
	// report on each task at most once (§III-C).
	Submit(ctx context.Context, account string, task int, value float64, at time.Time) error
	// SubmitBatch records many observations, validating items
	// independently; per-item errors come back positionally (nil =
	// acknowledged durable). The returned slice always has len(items).
	SubmitBatch(ctx context.Context, items []BatchSubmission) []error
	// RecordFingerprint extracts Table II features from a raw sign-in
	// capture and stores them for the account.
	RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error
	// RecordFingerprintFeatures stores an already-extracted fingerprint
	// feature vector (the replay/import path).
	RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error
	// Dataset snapshots the full campaign as an mcs.Dataset. The result
	// may be shared with other callers (RemoteStore returns the dataset
	// its client keeps until the node changes), so callers must treat it
	// as read-only.
	Dataset(ctx context.Context) (*mcs.Dataset, error)
	// Aggregate runs the named aggregation method ("crh", "mean",
	// "median", "td-fp", "td-ts", "td-tr") over the current dataset and
	// returns the result plus per-task weighted standard errors (see
	// truth.Uncertainty).
	Aggregate(ctx context.Context, method string) (truth.Result, []float64, error)
	// Stats summarizes the store. On a sharded store a partial
	// scatter-gather marks the response Degraded.
	Stats(ctx context.Context) (StatsResponse, error)
}

// Pinger is an optional Store capability: a health probe answering like
// GET /readyz. RemoteStore forwards to the backing node; LocalStore is
// trivially ready. The shard router uses it to build per-shard health.
type Pinger interface {
	Ready(ctx context.Context) (ReadyzResponse, error)
}

// HealthReporter is an optional Store capability: per-shard health and
// the ring status of a composite store. When the server's store
// implements it, /readyz aggregates the breakdown, answers 503 unless
// every shard is ready, and carries the ring version and whether an
// online reshard is in flight, so operators can watch it cut over.
type HealthReporter interface {
	ShardHealth(ctx context.Context) []ShardHealth
	RingStatus() RingStatus
}

// ShardHealth is one shard's slice of a composite /readyz answer. On a
// replicated fleet there is one entry per replica: Shard names the
// replica group (ring position) and Replica the member within it.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Replica is the member index within the shard's replica group; zero
	// (and omitted) on unreplicated fleets, where each shard is a single
	// process.
	Replica int    `json:"replica,omitempty"`
	Addr    string `json:"addr,omitempty"`
	Ready   bool   `json:"ready"`
	// Status is the shard's own /readyz status ("ready", "draining",
	// "overloaded") or "unreachable" when the probe failed.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Role is the replica's replication role ("primary"/"follower") when
	// the router's failover poller knows it; empty otherwise.
	Role string `json:"role,omitempty"`
	// ProbeAgeMs is how stale this answer is: milliseconds since the
	// router's health poller last completed a probe of this replica. Only
	// set when a background poller (rather than a live probe) produced the
	// entry, so readyz consumers can tell cached state from fresh.
	ProbeAgeMs int64 `json:"probe_age_ms,omitempty"`
}

// ReadyzResponse is the body served at /readyz. Shards, RingVersion and
// Migrating are present only on a router aggregating a multi-shard
// platform (see HealthReporter); a single node serializes exactly the
// pre-sharding {"status": ...} body.
type ReadyzResponse struct {
	Status      string        `json:"status"`
	Shards      []ShardHealth `json:"shards,omitempty"`
	RingVersion uint64        `json:"ring_version,omitempty"`
	Migrating   bool          `json:"migrating,omitempty"`
}

// RingStatus is a composite store's current topology version and whether
// an online reshard is in flight.
type RingStatus struct {
	Version   uint64 `json:"ring_version"`
	Migrating bool   `json:"migrating"`
}
