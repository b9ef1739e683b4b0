package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sybiltd/internal/fingerprint"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/platform"
	"sybiltd/internal/truth"
)

func testTasks(n int) []mcs.Task {
	tasks := make([]mcs.Task, n)
	for i := range tasks {
		tasks[i] = mcs.Task{ID: i, Name: fmt.Sprintf("POI-%d", i+1), X: float64(i) * 10, Y: 0}
	}
	return tasks
}

func at(min int) time.Time {
	return time.Date(2026, 7, 1, 10, min, 0, 0, time.UTC)
}

// testFeatures is a valid fingerprint feature vector: fingerprint.VectorLen
// short decimals counting up from seed, which keeps WAL records small.
func testFeatures(seed float64) []float64 {
	v := make([]float64, fingerprint.VectorLen)
	for i := range v {
		v[i] = seed + float64(i)*0.25
	}
	return v
}

// newLocalFleet builds a sharded store over n in-process LocalStore
// backends sharing one task list.
func newLocalFleet(t *testing.T, shards, tasks int) (*Store, []*platform.LocalStore) {
	t.Helper()
	backends := make([]platform.Store, shards)
	locals := make([]*platform.LocalStore, shards)
	for i := range backends {
		locals[i] = platform.NewLocalStore(testTasks(tasks))
		backends[i] = locals[i]
	}
	s, err := New(context.Background(), backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, locals
}

// accountsPerShard returns one account name owned by each shard,
// discovered by probing the ring.
func accountsPerShard(s *Store) []string {
	out := make([]string, s.Shards())
	found := 0
	for i := 0; found < s.Shards(); i++ {
		name := fmt.Sprintf("acct-%d", i)
		sh := s.Shard(name)
		if out[sh] == "" {
			out[sh] = name
			found++
		}
	}
	return out
}

func TestShardStoreRoutesWritesToOwner(t *testing.T) {
	s, locals := newLocalFleet(t, 3, 2)
	owners := accountsPerShard(s)
	for sh, account := range owners {
		if err := s.Submit(context.Background(), account, 0, float64(10+sh), at(sh)); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordFingerprintFeatures(context.Background(), account, testFeatures(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Each backend must hold exactly the one account routed to it.
	for sh, local := range locals {
		if n := local.NumAccounts(); n != 1 {
			t.Errorf("shard %d holds %d accounts, want 1", sh, n)
		}
		ds, _ := local.Dataset(context.Background())
		if len(ds.Accounts) != 1 || ds.Accounts[0].ID != owners[sh] {
			t.Errorf("shard %d holds %v, want [%s]", sh, ds.Accounts, owners[sh])
		}
	}
	// The duplicate guard lives with the owning shard: a second submit for
	// the same (account, task) is rejected no matter how it is routed.
	if err := s.Submit(context.Background(), owners[0], 0, 99, at(9)); !errors.Is(err, platform.ErrDuplicateReport) {
		t.Errorf("duplicate submit: %v, want ErrDuplicateReport", err)
	}
	if err := s.Submit(context.Background(), "", 0, 1, at(0)); !errors.Is(err, platform.ErrEmptyAccount) {
		t.Errorf("empty account: %v, want ErrEmptyAccount", err)
	}
}

func TestShardStoreSubmitBatchPositional(t *testing.T) {
	s, _ := newLocalFleet(t, 3, 2)
	owners := accountsPerShard(s)
	// Seed a report so position 3 below is an in-store duplicate.
	if err := s.Submit(context.Background(), owners[1], 0, 5, at(0)); err != nil {
		t.Fatal(err)
	}
	items := []platform.BatchSubmission{
		{Account: owners[0], Task: 0, Value: 1, At: at(1)},          // ok
		{Account: owners[2], Task: 1, Value: 2, At: at(1)},          // ok
		{Account: owners[0], Task: 1, Value: math.NaN(), At: at(1)}, // NaN
		{Account: owners[1], Task: 0, Value: 3, At: at(1)},          // duplicate
		{Account: "", Task: 0, Value: 4, At: at(1)},                 // empty account
		{Account: owners[1], Task: 9, Value: 5, At: at(1)},          // unknown task
		{Account: owners[2], Task: 0, Value: 6, At: at(1)},          // ok
	}
	errs := s.SubmitBatch(context.Background(), items)
	if len(errs) != len(items) {
		t.Fatalf("got %d results for %d items", len(errs), len(items))
	}
	wantOK := []int{0, 1, 6}
	for _, i := range wantOK {
		if errs[i] != nil {
			t.Errorf("item %d: %v, want accepted", i, errs[i])
		}
	}
	for i, sentinel := range map[int]error{
		2: platform.ErrMalformedRequest,
		3: platform.ErrDuplicateReport,
		4: platform.ErrEmptyAccount,
		5: platform.ErrUnknownTask,
	} {
		if !errors.Is(errs[i], sentinel) {
			t.Errorf("item %d: %v, want %v", i, errs[i], sentinel)
		}
	}
}

// failingStore wraps a Store and fails every operation, simulating an
// unreachable shard process.
type failingStore struct {
	platform.Store
	err error
}

func (f *failingStore) Submit(ctx context.Context, account string, task int, value float64, at time.Time) error {
	return f.err
}
func (f *failingStore) SubmitBatch(ctx context.Context, items []platform.BatchSubmission) []error {
	errs := make([]error, len(items))
	for i := range errs {
		errs[i] = f.err
	}
	return errs
}
func (f *failingStore) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	return f.err
}
func (f *failingStore) RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error {
	return f.err
}
func (f *failingStore) Dataset(ctx context.Context) (*mcs.Dataset, error) { return nil, f.err }
func (f *failingStore) Aggregate(ctx context.Context, method string) (truth.Result, []float64, error) {
	return truth.Result{}, nil, f.err
}
func (f *failingStore) Stats(ctx context.Context) (platform.StatsResponse, error) {
	return platform.StatsResponse{}, f.err
}
func (f *failingStore) Ready(ctx context.Context) (platform.ReadyzResponse, error) {
	return platform.ReadyzResponse{}, f.err
}

func TestShardStoreSubmitBatchOneShardDown(t *testing.T) {
	backends := make([]platform.Store, 3)
	for i := range backends {
		backends[i] = platform.NewLocalStore(testTasks(2))
	}
	down := fmt.Errorf("%w: connection refused", platform.ErrShardUnavailable)
	backends[1] = &failingStore{Store: backends[1], err: down}
	s, err := New(context.Background(), backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	owners := accountsPerShard(s)
	items := []platform.BatchSubmission{
		{Account: owners[0], Task: 0, Value: 1, At: at(0)},
		{Account: owners[1], Task: 0, Value: 2, At: at(0)}, // → dead shard
		{Account: owners[2], Task: 0, Value: 3, At: at(0)},
		{Account: owners[1], Task: 1, Value: 4, At: at(0)}, // → dead shard
	}
	errs := s.SubmitBatch(context.Background(), items)
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("items on live shards failed: %v / %v", errs[0], errs[2])
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(errs[i], platform.ErrShardUnavailable) {
			t.Errorf("item %d on dead shard: %v, want ErrShardUnavailable", i, errs[i])
		}
	}
}

// TestShardStoreAggregateBitIdenticalToSingleNode runs over HTTP shards,
// so every aggregate after the first revalidates the datasets the router's
// clients kept, and takes its reference from a fresh gather that keeps
// nothing.
func TestShardStoreAggregateBitIdenticalToSingleNode(t *testing.T) {
	s := newHTTPFleet(t, 3, 3).store
	// A spread of accounts across all shards, several reports each.
	for i := 0; i < 12; i++ {
		account := fmt.Sprintf("worker-%d", i)
		for task := 0; task < 3; task++ {
			v := float64(20+task*5) + float64(i%5)*0.25
			if err := s.Submit(context.Background(), account, task, v, at(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged := freshGather(t, s)
	if merged.NumAccounts() != 12 {
		t.Fatalf("merged dataset has %d accounts, want 12", merged.NumAccounts())
	}
	for _, method := range []string{"mean", "median", "crh", "td-ts", "td-tr"} {
		res, unc, err := s.Aggregate(context.Background(), method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		// Replay the merged dataset through a single-node store: the shard
		// store promises bit-identical truths on the same input.
		single := platform.NewLocalStore(merged.Tasks)
		for _, acct := range merged.Accounts {
			for _, obs := range acct.Observations {
				if err := single.Submit(context.Background(), acct.ID, obs.Task, obs.Value, obs.Time); err != nil {
					t.Fatalf("%s: replay %s/%d: %v", method, acct.ID, obs.Task, err)
				}
			}
		}
		want, wantUnc, err := single.Aggregate(context.Background(), method)
		if err != nil {
			t.Fatalf("%s single-node: %v", method, err)
		}
		if len(res.Truths) != len(want.Truths) {
			t.Fatalf("%s: %d truths vs %d", method, len(res.Truths), len(want.Truths))
		}
		for task := range want.Truths {
			if res.Truths[task] != want.Truths[task] && !(math.IsNaN(res.Truths[task]) && math.IsNaN(want.Truths[task])) {
				t.Errorf("%s task %d: sharded %v != single-node %v", method, task, res.Truths[task], want.Truths[task])
			}
			if task < len(unc) && task < len(wantUnc) &&
				unc[task] != wantUnc[task] && !(math.IsNaN(unc[task]) && math.IsNaN(wantUnc[task])) {
				t.Errorf("%s task %d uncertainty: sharded %v != single-node %v", method, task, unc[task], wantUnc[task])
			}
		}
		if res.Degraded {
			t.Errorf("%s: degraded with every shard reachable: %q", method, res.DegradedReason)
		}
	}
}

func TestShardStoreDegradedReads(t *testing.T) {
	backends := make([]platform.Store, 3)
	locals := make([]*platform.LocalStore, 3)
	for i := range backends {
		locals[i] = platform.NewLocalStore(testTasks(1))
		backends[i] = locals[i]
	}
	s, err := New(context.Background(), backends, Options{Addrs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	owners := accountsPerShard(s)
	for sh, account := range owners {
		if err := s.Submit(context.Background(), account, 0, float64(10+sh), at(sh)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill shard 1 after the writes landed.
	down := fmt.Errorf("%w: connection refused", platform.ErrShardUnavailable)
	s.topology().groups[1].replicas[0] = &failingStore{Store: locals[1], err: down}

	// Aggregate and Stats answer from the reachable part, flagged.
	res, _, err := s.Aggregate(context.Background(), "mean")
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "shards_unreachable:1") {
		t.Errorf("aggregate degraded=%v reason=%q, want shards_unreachable:1", res.Degraded, res.DegradedReason)
	}
	stats, err := s.Stats(context.Background())
	if err != nil {
		t.Fatalf("degraded stats: %v", err)
	}
	if !stats.Degraded || !strings.Contains(stats.DegradedReason, "shards_unreachable:1") {
		t.Errorf("stats degraded=%v reason=%q", stats.Degraded, stats.DegradedReason)
	}
	if stats.Accounts != 2 {
		t.Errorf("degraded stats counted %d accounts, want 2 (reachable shards)", stats.Accounts)
	}

	// Dataset is strict: a partial export is worse than a late one.
	if _, err := s.Dataset(context.Background()); !errors.Is(err, platform.ErrShardUnavailable) {
		t.Errorf("partial dataset: %v, want ErrShardUnavailable", err)
	}

	// An unknown method is a 400-class answer even with shards down.
	if _, _, err := s.Aggregate(context.Background(), "quantum"); !errors.Is(err, platform.ErrUnknownAggregation) {
		t.Errorf("unknown method: %v, want ErrUnknownAggregation", err)
	}

	// All shards down → error, not an empty degraded answer.
	for i := range s.topology().groups {
		s.topology().groups[i].replicas[0] = &failingStore{Store: locals[i], err: down}
	}
	if _, _, err := s.Aggregate(context.Background(), "mean"); !errors.Is(err, platform.ErrShardUnavailable) {
		t.Errorf("all-shards-down aggregate: %v, want ErrShardUnavailable", err)
	}
	if _, err := s.Stats(context.Background()); !errors.Is(err, platform.ErrShardUnavailable) {
		t.Errorf("all-shards-down stats: %v, want ErrShardUnavailable", err)
	}
}

func TestShardStoreHealth(t *testing.T) {
	s, locals := newLocalFleet(t, 3, 1)
	// LocalStore backends have no Pinger capability → trivially ready.
	health := s.ShardHealth(context.Background())
	if len(health) != 3 {
		t.Fatalf("health for %d shards, want 3", len(health))
	}
	for _, h := range health {
		if !h.Ready || h.Status != "ready" {
			t.Errorf("shard %d: ready=%v status=%q", h.Shard, h.Ready, h.Status)
		}
	}
	// A failing Pinger backend reports unreachable.
	down := fmt.Errorf("%w: connection refused", platform.ErrShardUnavailable)
	s.topology().groups[2].replicas[0] = &failingStore{Store: locals[2], err: down}
	health = s.ShardHealth(context.Background())
	if health[2].Ready || health[2].Status != "unreachable" {
		t.Errorf("dead shard health = %+v, want unreachable", health[2])
	}
}

func TestShardStoreNewFailsWithNoBackends(t *testing.T) {
	if _, err := New(context.Background(), nil, Options{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
}
