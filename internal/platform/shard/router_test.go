package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// httpFleet is a 3-level test topology: shard processes (platform.Server
// over LocalStore, each on its own httptest listener), a shard.Store
// routing to them through RemoteStore clients, and a router (the same
// platform.Server over the shard.Store) that external clients talk to.
type httpFleet struct {
	locals    []*platform.LocalStore
	shardSrvs []*platform.Server
	shardHTTP []*httptest.Server
	store     *Store
	router    *httptest.Server
	routerAPI *platform.Server
	client    *platform.Client
}

func newHTTPFleet(t *testing.T, shards, tasks int) *httpFleet {
	t.Helper()
	f := &httpFleet{}
	backends := make([]platform.Store, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		local := platform.NewLocalStore(testTasks(tasks))
		api := platform.NewServer(local, nil)
		srv := httptest.NewServer(api)
		t.Cleanup(srv.Close)
		t.Cleanup(api.Close)
		f.locals = append(f.locals, local)
		f.shardSrvs = append(f.shardSrvs, api)
		f.shardHTTP = append(f.shardHTTP, srv)
		addrs[i] = srv.URL
		backends[i] = platform.NewRemoteStore(platform.NewClient(srv.URL, platform.WithRetries(0)))
	}
	store, err := New(context.Background(), backends, Options{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	f.store = store
	f.routerAPI = platform.NewServer(store, nil)
	f.router = httptest.NewServer(f.routerAPI)
	t.Cleanup(f.router.Close)
	t.Cleanup(f.routerAPI.Close)
	f.client = platform.NewClient(f.router.URL, platform.WithRetries(0))
	return f
}

func TestRouterServesWireAPIEndToEnd(t *testing.T) {
	f := newHTTPFleet(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tasks, err := f.client.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("router serves %d tasks, want 2", len(tasks))
	}

	// Subscribe to the router's truth stream before submitting: router-side
	// acks must feed the router's own hub.
	w, err := f.client.Watch(ctx, platform.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Writes through the router land on their owning shards.
	owners := accountsPerShard(f.store)
	for sh, account := range owners {
		if err := f.client.Submit(ctx, platform.SubmissionRequest{
			Account: account, Task: 0, Value: float64(10 + sh), Time: at(sh),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for sh, local := range f.locals {
		if n := local.NumAccounts(); n != 1 {
			t.Errorf("shard %d holds %d accounts, want 1", sh, n)
		}
		_ = sh
	}

	// The stream observed at least one of the submissions.
	if _, ok := w.Next(5 * time.Second); !ok {
		t.Fatalf("no truth update on the router watch stream: %v", w.Err())
	}

	// Batch through the router: positional results, mixed outcomes.
	results, err := f.client.SubmitBatch(ctx, []platform.SubmissionRequest{
		{Account: owners[0], Task: 1, Value: 1, Time: at(5)},
		{Account: owners[0], Task: 0, Value: 2, Time: at(5)}, // duplicate
		{Account: owners[1], Task: 1, Value: 3, Time: at(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err() != nil || results[2].Err() != nil {
		t.Errorf("batch accepts failed: %v / %v", results[0].Err(), results[2].Err())
	}
	if !errors.Is(results[1].Err(), platform.ErrDuplicateReport) {
		t.Errorf("batch duplicate through router = %v, want ErrDuplicateReport", results[1].Err())
	}

	// Fingerprints route to the owning shard.
	if err := f.client.RecordFeatureFingerprint(ctx, owners[2], testFeatures(1)); err != nil {
		t.Fatal(err)
	}

	// Stats sum across shards.
	stats, err := f.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 2 || stats.Accounts != 3 || stats.Degraded {
		t.Errorf("stats = %+v, want 2 tasks / 3 accounts, not degraded", stats)
	}

	// The dataset is the merged campaign.
	ds, err := f.client.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumAccounts() != 3 || ds.NumTasks() != 2 {
		t.Errorf("dataset = %d accounts / %d tasks", ds.NumAccounts(), ds.NumTasks())
	}

	// Aggregation through the router answers, not degraded.
	agg, err := f.client.Aggregate(ctx, "mean")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Meta.Degraded {
		t.Errorf("aggregate degraded with all shards up: %q", agg.Meta.DegradedReason)
	}
	if len(agg.Truths) != 2 {
		t.Errorf("aggregate covers %d tasks, want 2", len(agg.Truths))
	}
}

func TestRouterReadyzAggregatesShardHealth(t *testing.T) {
	f := newHTTPFleet(t, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rz, err := f.client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != "ready" || len(rz.Shards) != 3 {
		t.Fatalf("healthy fleet readyz = %+v, want ready with 3 shards", rz)
	}
	for _, sh := range rz.Shards {
		if !sh.Ready || sh.Status != "ready" || sh.Addr == "" {
			t.Errorf("shard health = %+v, want ready with addr", sh)
		}
	}

	// A draining shard flips the router to 503 with the shard named.
	f.shardSrvs[1].SetDraining(true)
	resp, err := http.Get(f.router.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with draining shard = HTTP %d, want 503", resp.StatusCode)
	}
	rz, err = f.client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != "degraded" {
		t.Errorf("readyz status = %q, want degraded", rz.Status)
	}
	if rz.Shards[1].Ready || rz.Shards[1].Status != "draining" {
		t.Errorf("draining shard reported %+v", rz.Shards[1])
	}
	if !rz.Shards[0].Ready || !rz.Shards[2].Ready {
		t.Errorf("healthy shards reported not ready: %+v", rz.Shards)
	}
	f.shardSrvs[1].SetDraining(false)

	// An unreachable shard reports as such.
	f.shardHTTP[2].Close()
	rz, err = f.client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != "degraded" || rz.Shards[2].Ready || rz.Shards[2].Status != "unreachable" {
		t.Errorf("readyz with dead shard = %+v", rz)
	}
	if rz.Shards[2].Error == "" {
		t.Errorf("unreachable shard carries no error detail: %+v", rz.Shards[2])
	}
}

func TestRouterShardUnavailableOnWrite(t *testing.T) {
	f := newHTTPFleet(t, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	owners := accountsPerShard(f.store)

	f.shardHTTP[1].Close()
	err := f.client.Submit(ctx, platform.SubmissionRequest{Account: owners[1], Task: 0, Value: 1, Time: at(0)})
	if !errors.Is(err, platform.ErrShardUnavailable) {
		t.Fatalf("submit to dead shard through router = %v, want ErrShardUnavailable", err)
	}
	var ae *platform.APIError
	if !errors.As(err, &ae) || ae.Code != platform.CodeShardUnavailable || ae.Status != http.StatusServiceUnavailable {
		t.Errorf("wire shape = %+v, want 503 %s", ae, platform.CodeShardUnavailable)
	}

	// Accounts owned by live shards are unaffected.
	for _, sh := range []int{0, 2} {
		if err := f.client.Submit(ctx, platform.SubmissionRequest{
			Account: owners[sh], Task: 0, Value: float64(sh), Time: at(0),
		}); err != nil {
			t.Errorf("live shard %d: %v", sh, err)
		}
	}

	// A batch splits: dead-shard items fail with shard_unavailable, live
	// items are acked.
	results, err := f.client.SubmitBatch(ctx, []platform.SubmissionRequest{
		{Account: fmt.Sprintf("%s-b", owners[0]), Task: 0, Value: 1, Time: at(1)},
		{Account: owners[1], Task: 0, Value: 2, Time: at(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The helper account may hash anywhere; recompute its owner.
	first := results[0].Err()
	if f.store.Shard(fmt.Sprintf("%s-b", owners[0])) == 1 {
		if !errors.Is(first, platform.ErrShardUnavailable) {
			t.Errorf("item 0 (dead shard) = %v", first)
		}
	} else if first != nil {
		t.Errorf("item 0 (live shard) = %v", first)
	}
	if !errors.Is(results[1].Err(), platform.ErrShardUnavailable) {
		t.Errorf("item 1 routed to dead shard = %v, want ErrShardUnavailable", results[1].Err())
	}
}

// TestRouterWatchFeedsOnlyAcknowledgedReports is the router's half of
// platform's TestWatchFeedsOnlyAcknowledgedReports: a router's truth
// stream carries exactly the reports shard.Store acknowledged through the
// router's handlers, for a batch the router splits across groups. The
// router here fronts newHTTPFleet's store with its own registry and a
// rate limit.
func TestRouterWatchFeedsOnlyAcknowledgedReports(t *testing.T) {
	f := newHTTPFleet(t, 3, 3)
	reg := obs.NewRegistry()
	api := platform.NewServerWithOptions(f.store, platform.ServerOptions{
		Registry: reg,
		// Three requests or items per account, with no refill in the test.
		Limits: platform.ServerLimits{RatePerSec: 1e-3, RateBurst: 3},
	})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)
	client := platform.NewClient(srv.URL, platform.WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	owners := accountsPerShard(f.store)
	if err := client.Submit(ctx, platform.SubmissionRequest{Account: owners[0], Task: 0, Value: -50}); err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, platform.SubmissionRequest{Account: owners[0], Task: 0, Value: -90}); !errors.Is(err, platform.ErrDuplicateReport) {
		t.Fatalf("second submit = %v, want ErrDuplicateReport", err)
	}
	// The refusal still spends one of the account's tokens, leaving two.
	if err := client.Submit(ctx, platform.SubmissionRequest{Account: "limited", Task: 99, Value: -10}); !errors.Is(err, platform.ErrUnknownTask) {
		t.Fatalf("unknown-task submit = %v, want ErrUnknownTask", err)
	}
	results, err := client.SubmitBatch(ctx, []platform.SubmissionRequest{
		{Account: owners[1], Task: 1, Value: -60},
		{Account: owners[0], Task: 0, Value: -95},
		{Account: owners[2], Task: 99, Value: -10},
		{Account: "limited", Task: 0, Value: -10},
		{Account: owners[2], Task: 2, Value: -70},
		{Account: "limited", Task: 1, Value: -10},
		{Account: "limited", Task: 2, Value: -10},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []error{nil, platform.ErrDuplicateReport, platform.ErrUnknownTask, platform.ErrRateLimited, nil, platform.ErrRateLimited, platform.ErrRateLimited}
	for i, res := range results {
		if err := res.Err(); !errors.Is(err, want[i]) {
			t.Fatalf("item %d = %v, want %v", i, err, want[i])
		}
	}
	if n := reg.Snapshot().Counters["stream.reports"]; n != 3 {
		t.Fatalf("router stream.reports = %d, want the 3 accepted reports", n)
	}

	w, err := client.Watch(ctx, platform.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]float64)
	for {
		u, ok := w.Next(300 * time.Millisecond)
		if !ok {
			break
		}
		got[u.Task] = u.Value
	}
	wantTruths := map[int]float64{0: -50, 1: -60, 2: -70}
	if len(got) != len(wantTruths) {
		t.Fatalf("watch delivered %v, want %v", got, wantTruths)
	}
	for task, v := range wantTruths {
		if math.Abs(got[task]-v) > 1e-9 {
			t.Fatalf("watch delivered %v, want %v", got, wantTruths)
		}
	}
}
