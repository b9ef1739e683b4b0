package platform

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/truth"
)

// RemoteStore is the Store implementation backed by a Client: every
// operation is one call against another node's /v1 API, with the client's
// retry/backoff/breaker policy. The shard router composes N of these —
// one per shard process — behind the same Server that fronts a
// LocalStore, which is what keeps the wire API identical at every level
// of the topology.
type RemoteStore struct {
	c *Client

	// fenceVersion caches the highest fence version acknowledged by the
	// backing node through this store — FenceVersion() answers from it
	// without a round trip.
	fenceVersion atomic.Uint64
}

// RemoteStore implements Store, the Pinger health capability, and the
// resharding capabilities (Exporter, Fencer) by forwarding to the backing
// node.
var (
	_ Store    = (*RemoteStore)(nil)
	_ Pinger   = (*RemoteStore)(nil)
	_ Exporter = (*RemoteStore)(nil)
	_ Fencer   = (*RemoteStore)(nil)
)

// NewRemoteStore wraps c as a Store.
func NewRemoteStore(c *Client) *RemoteStore {
	return &RemoteStore{c: c}
}

// Client returns the underlying client (e.g. to probe health directly).
func (r *RemoteStore) Client() *Client { return r.c }

// shardErr keeps an upstream error's sentinel identity when it has one
// and otherwise brands it ErrShardUnavailable: a connection failure or an
// undecodable 5xx from the backing node means the shard, not the request,
// is the problem, and must surface as a retryable 503 — never as the
// internal-error fallback.
func shardErr(err error) error {
	if err == nil {
		return nil
	}
	if code, status := codeForError(err); code != CodeInternal && status != http.StatusInternalServerError {
		return err
	}
	return fmt.Errorf("%w: %v", ErrShardUnavailable, err)
}

// Tasks lists the backing node's published tasks.
func (r *RemoteStore) Tasks(ctx context.Context) ([]mcs.Task, error) {
	dtos, err := r.c.Tasks(ctx)
	if err != nil {
		return nil, shardErr(err)
	}
	tasks := make([]mcs.Task, len(dtos))
	for i, t := range dtos {
		tasks[i] = mcs.Task{ID: t.ID, Name: t.Name, X: t.X, Y: t.Y}
	}
	return tasks, nil
}

// Submit records one observation on the backing node.
func (r *RemoteStore) Submit(ctx context.Context, account string, task int, value float64, at time.Time) error {
	return shardErr(r.c.Submit(ctx, SubmissionRequest{Account: account, Task: task, Value: value, Time: at}))
}

// SubmitBatch forwards the batch in one POST /v1/reports:batch call and
// maps the positional results back to per-item errors. An envelope
// failure (the whole call failed) lands the same shard error in every
// position — the caller's positional contract holds regardless.
func (r *RemoteStore) SubmitBatch(ctx context.Context, items []BatchSubmission) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	reports := make([]SubmissionRequest, len(items))
	for i, it := range items {
		reports[i] = SubmissionRequest{Account: it.Account, Task: it.Task, Value: it.Value, Time: it.At}
	}
	results, err := r.c.SubmitBatch(ctx, reports)
	if err != nil {
		e := shardErr(err)
		for i := range errs {
			errs[i] = e
		}
		return errs
	}
	for i, res := range results {
		errs[i] = res.Err()
	}
	return errs
}

// RecordFingerprint uploads a raw sign-in capture.
func (r *RemoteStore) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	return shardErr(r.c.RecordFingerprint(ctx, account, rec))
}

// RecordFingerprintFeatures uploads an already-extracted feature vector.
func (r *RemoteStore) RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error {
	return shardErr(r.c.RecordFeatureFingerprint(ctx, account, features))
}

// Dataset reads the backing node's full campaign snapshot, revalidating
// the one its client kept (see Client.Dataset): while the node is
// unchanged no body crosses the wire. The result is shared and
// read-only; the store holds at most one decoded dataset.
func (r *RemoteStore) Dataset(ctx context.Context) (*mcs.Dataset, error) {
	ds, err := r.c.Dataset(ctx)
	if err != nil {
		return nil, shardErr(err)
	}
	return ds, nil
}

// Aggregate runs the aggregation on the backing node and maps the wire
// response back to a truth.Result: unestimated tasks become NaN (the
// in-process convention) and the uncertainty vector is rebuilt from the
// per-task DTOs.
func (r *RemoteStore) Aggregate(ctx context.Context, method string) (truth.Result, []float64, error) {
	out, err := r.c.Aggregate(ctx, method)
	if err != nil {
		return truth.Result{}, nil, shardErr(err)
	}
	res := truth.Result{
		Iterations:     out.Meta.Iterations,
		Converged:      out.Meta.Converged,
		Degraded:       out.Meta.Degraded,
		DegradedReason: out.Meta.DegradedReason,
	}
	n := len(out.Truths)
	for _, t := range out.Truths {
		if t.Task >= n {
			n = t.Task + 1
		}
	}
	res.Truths = make([]float64, n)
	unc := make([]float64, n)
	for i := range res.Truths {
		res.Truths[i] = math.NaN()
		unc[i] = math.NaN()
	}
	for _, t := range out.Truths {
		if t.Task < 0 || !t.Estimated {
			continue
		}
		res.Truths[t.Task] = t.Value
		if t.Uncertainty != 0 {
			unc[t.Task] = t.Uncertainty
		}
	}
	return res, unc, nil
}

// Stats fetches the backing node's store summary.
func (r *RemoteStore) Stats(ctx context.Context) (StatsResponse, error) {
	stats, err := r.c.Stats(ctx)
	if err != nil {
		return StatsResponse{}, shardErr(err)
	}
	return stats, nil
}

// Ready probes the backing node's /readyz (see Client.Ready).
func (r *RemoteStore) Ready(ctx context.Context) (ReadyzResponse, error) {
	return r.c.Ready(ctx)
}

// ExportSince reads the backing node's decoded WAL tail (the migration
// coordinator's catch-up stream during an online reshard).
func (r *RemoteStore) ExportSince(ctx context.Context, from uint64, max int) (ExportBatch, error) {
	batch, err := r.c.ReplExport(ctx, ExportRequest{FromSeq: from, MaxRecords: max})
	if err != nil {
		return ExportBatch{}, shardErr(err)
	}
	return batch, nil
}

// Fence tells the backing node to refuse further mutations for accounts
// with wrong_shard at ringVersion (the online-reshard cutover).
func (r *RemoteStore) Fence(ctx context.Context, ringVersion uint64, accounts []string) error {
	resp, err := r.c.Fence(ctx, FenceRequest{RingVersion: ringVersion, Accounts: accounts})
	if err != nil {
		return shardErr(err)
	}
	// Remember the highest acknowledged fence version (concurrent callers
	// may land out of order).
	for {
		cur := r.fenceVersion.Load()
		if resp.FenceVersion <= cur || r.fenceVersion.CompareAndSwap(cur, resp.FenceVersion) {
			return nil
		}
	}
}

// FenceVersion returns the highest fence version the backing node has
// acknowledged through this store (0 until a Fence call succeeds — it is
// a local cache, not a remote read).
func (r *RemoteStore) FenceVersion() uint64 { return r.fenceVersion.Load() }

// PurgeFenced tells the backing node to drop the data of accounts fenced
// at or below ringVersion, keeping the fence (the post-migration GC).
func (r *RemoteStore) PurgeFenced(ctx context.Context, ringVersion uint64) (int, error) {
	resp, err := r.c.PurgeFenced(ctx, PurgeRequest{RingVersion: ringVersion})
	if err != nil {
		return 0, shardErr(err)
	}
	return resp.Purged, nil
}
