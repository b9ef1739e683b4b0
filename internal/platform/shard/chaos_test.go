package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/platform"
)

// crashableShard is one durable shard process stand-in: a stable listener
// whose handler can be swapped, so "kill -9" (abort the WAL without a
// final snapshot, answer nothing) and "restart" (recover the data dir,
// serve again on the same address) happen without the listener moving —
// exactly what a supervisor restarting a crashed process looks like to
// the router.
type crashableShard struct {
	t   *testing.T
	dir string

	mu    sync.RWMutex
	alive bool
	store *platform.LocalStore
	d     *platform.Durability
	api   *platform.Server

	srv *httptest.Server
}

func newCrashableShard(t *testing.T, dir string, tasks int) *crashableShard {
	t.Helper()
	s := &crashableShard{t: t, dir: dir}
	s.srv = httptest.NewServer(http.HandlerFunc(s.serve))
	t.Cleanup(s.srv.Close)
	s.start(tasks)
	return s
}

func (s *crashableShard) serve(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	alive, api := s.alive, s.api
	s.mu.RUnlock()
	if !alive {
		// A dead process answers nothing: abort the connection so the
		// router sees a transport error, not a well-formed HTTP response.
		panic(http.ErrAbortHandler)
	}
	api.ServeHTTP(w, r)
}

func (s *crashableShard) start(tasks int) {
	s.t.Helper()
	store, d, _, err := platform.OpenDurable(s.dir, testTasks(tasks), platform.DurableOptions{
		CommitLinger:   time.Millisecond,
		CommitMaxBatch: 8,
	})
	if err != nil {
		s.t.Fatalf("open shard dir %s: %v", s.dir, err)
	}
	s.mu.Lock()
	s.store, s.d, s.api, s.alive = store, d, platform.NewServer(store, nil), true
	s.mu.Unlock()
}

// kill simulates the process dying mid-flight: the WAL handle closes with
// no final snapshot, and the listener stops answering.
func (s *crashableShard) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alive = false
	s.api.Close()
	if err := s.d.Abort(); err != nil {
		s.t.Errorf("abort shard durability: %v", err)
	}
}

// restart recovers the shard's data dir and serves again.
func (s *crashableShard) restart(tasks int) { s.start(tasks) }

// TestChaosShardedZeroAckedLoss is the sharded chaos campaign: a 3-shard
// durable fleet behind a router, a concurrent submission load, one shard
// killed (WAL aborted, connection refused) mid-campaign and later
// restarted from its data dir. The contract under test:
//
//   - writes owned by the dead shard fail retryably (shard_unavailable) —
//     and ONLY those; the other shards keep acknowledging throughout;
//   - aggregation and stats keep answering, flagged degraded, while the
//     dataset export fails retryably;
//   - /readyz names the dead shard;
//   - after recovery every acknowledged submission — including acks from
//     before the kill — is present with the right value: zero acked loss;
//   - the final router aggregation is bit-identical to a single-node run
//     over the merged dataset.
func TestChaosShardedZeroAckedLoss(t *testing.T) {
	const (
		numTasks      = 3
		phase1Workers = 12
		phase2Workers = 12
	)
	root := t.TempDir()
	shards := make([]*crashableShard, 3)
	backends := make([]platform.Store, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = newCrashableShard(t, filepath.Join(root, fmt.Sprintf("shard-%d", i)), numTasks)
		addrs[i] = shards[i].srv.URL
		backends[i] = platform.NewRemoteStore(platform.NewClient(addrs[i],
			platform.WithRetries(2),
			platform.WithBackoff(time.Millisecond, 10*time.Millisecond),
		))
	}
	store, err := New(context.Background(), backends, Options{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	routerAPI := platform.NewServer(store, nil)
	router := httptest.NewServer(routerAPI)
	t.Cleanup(router.Close)
	t.Cleanup(routerAPI.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type acked struct {
		account string
		task    int
		value   float64
	}
	var (
		mu       sync.Mutex
		ackedSet []acked
		failed   []platform.SubmissionRequest
	)
	load := func(phase string, workers int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				client := platform.NewClient(router.URL,
					platform.WithRetries(3),
					platform.WithBackoff(time.Millisecond, 20*time.Millisecond),
				)
				account := fmt.Sprintf("%s-acct-%d", phase, w)
				for task := 0; task < numTasks; task++ {
					req := platform.SubmissionRequest{
						Account: account, Task: task,
						Value: float64(-60 - w - task), Time: at(w*numTasks + task),
					}
					err := client.Submit(ctx, req)
					mu.Lock()
					// A duplicate rejection on retry proves the write
					// landed before its ack was lost: it counts as acked.
					if err == nil || errors.Is(err, platform.ErrDuplicateReport) {
						ackedSet = append(ackedSet, acked{req.Account, req.Task, req.Value})
					} else {
						failed = append(failed, req)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1: all shards healthy; every submission must ack.
	load("p1", phase1Workers)
	if len(failed) != 0 {
		t.Fatalf("healthy fleet rejected %d submissions: %v", len(failed), failed[0])
	}

	// Kill shard 1 — hard: the WAL closes with no final snapshot, so only
	// fsynced-before-ack records survive, which is exactly the durability
	// promise being tested.
	shards[1].kill()

	// Phase 2: concurrent load against a degraded fleet, plus degraded
	// reads in flight at the same time.
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		client := platform.NewClient(router.URL, platform.WithRetries(0))
		sawDegradedAgg, sawDegradedStats := false, false
		for i := 0; i < 20; i++ {
			if agg, err := client.Aggregate(ctx, "mean"); err == nil && agg.Meta.Degraded {
				sawDegradedAgg = true
			}
			if st, err := client.Stats(ctx); err == nil && st.Degraded {
				sawDegradedStats = true
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !sawDegradedAgg || !sawDegradedStats {
			t.Errorf("degraded fleet never served a degraded answer (agg=%v stats=%v)",
				sawDegradedAgg, sawDegradedStats)
		}
	}()
	load("p2", phase2Workers)
	readWG.Wait()

	// Only submissions owned by the dead shard may have failed, and every
	// failure must be the retryable shard_unavailable.
	mu.Lock()
	for _, req := range failed {
		if sh := store.Shard(req.Account); sh != 1 {
			t.Errorf("submission for %s (shard %d) failed with shard 1 down", req.Account, sh)
		}
	}
	phase2Failed := len(failed)
	mu.Unlock()
	if phase2Failed == 0 {
		t.Error("no submission was owned by the dead shard; the campaign proves nothing")
	}

	// The strict read fails retryably; readyz names the dead shard.
	probe := platform.NewClient(router.URL, platform.WithRetries(0))
	if _, err := probe.Dataset(ctx); !errors.Is(err, platform.ErrShardUnavailable) {
		t.Errorf("dataset with dead shard = %v, want ErrShardUnavailable", err)
	}
	rz, err := probe.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != "degraded" || rz.Shards[1].Ready || rz.Shards[1].Status != "unreachable" {
		t.Errorf("readyz during outage = %+v, want degraded with shard 1 unreachable", rz)
	}

	// Restart shard 1 from its data dir and drain the failed submissions.
	shards[1].restart(numTasks)
	mu.Lock()
	retry := append([]platform.SubmissionRequest(nil), failed...)
	failed = failed[:0]
	mu.Unlock()
	client := platform.NewClient(router.URL,
		platform.WithRetries(3),
		platform.WithBackoff(time.Millisecond, 20*time.Millisecond),
	)
	for _, req := range retry {
		err := client.Submit(ctx, req)
		if err != nil && !errors.Is(err, platform.ErrDuplicateReport) {
			t.Fatalf("post-recovery submit %s/%d: %v", req.Account, req.Task, err)
		}
		mu.Lock()
		ackedSet = append(ackedSet, acked{req.Account, req.Task, req.Value})
		mu.Unlock()
	}
	rz, err = probe.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != "ready" {
		t.Errorf("readyz after recovery = %+v, want ready", rz)
	}

	// Zero acked loss: every acknowledged submission — including phase-1
	// acks that lived only in shard 1's WAL when it died — is in the
	// merged dataset with the right value.
	ds, err := probe.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[string]map[int]float64, ds.NumAccounts())
	for _, acct := range ds.Accounts {
		values[acct.ID] = make(map[int]float64, len(acct.Observations))
		for _, obs := range acct.Observations {
			values[acct.ID][obs.Task] = obs.Value
		}
	}
	want := (phase1Workers + phase2Workers) * numTasks
	if len(ackedSet) != want {
		t.Errorf("%d acked submissions, want %d (every submission eventually acked)", len(ackedSet), want)
	}
	for _, a := range ackedSet {
		v, ok := values[a.account][a.task]
		if !ok {
			t.Errorf("ACKED DATA LOST: %s task %d missing from the recovered fleet", a.account, a.task)
			continue
		}
		if v != a.value {
			t.Errorf("acked %s task %d = %v, recovered %v", a.account, a.task, a.value, v)
		}
	}

	// Bit-identical aggregation: the router's answer equals a single-node
	// run over a fresh gather, which shares nothing the router keeps.
	ref := freshGather(t, store)
	for _, method := range []string{"mean", "crh", "td-ts"} {
		agg, err := probe.Aggregate(ctx, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if agg.Meta.Degraded {
			t.Errorf("%s degraded after full recovery: %q", method, agg.Meta.DegradedReason)
		}
		res, _, err := platform.AggregateDataset(ctx, method, ref)
		if err != nil {
			t.Fatalf("%s single-node: %v", method, err)
		}
		for _, tr := range agg.Truths {
			if !tr.Estimated {
				if tr.Task < len(res.Truths) && !math.IsNaN(res.Truths[tr.Task]) {
					t.Errorf("%s task %d: router unestimated, single-node %v", method, tr.Task, res.Truths[tr.Task])
				}
				continue
			}
			if tr.Value != res.Truths[tr.Task] {
				t.Errorf("%s task %d: router %v != single-node %v (not bit-identical)",
					method, tr.Task, tr.Value, res.Truths[tr.Task])
			}
		}
	}
}
