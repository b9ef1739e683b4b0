package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// TestChaosReplicatedPrimaryKillZeroAckedLoss is the replicated chaos
// campaign: a 3-group x 2-replica semi-sync fleet behind a failover-
// polling router, a concurrent submission load, one group's primary
// killed mid-flight (WAL aborted, connection refused) and later restarted
// on the same address still claiming its stale primacy. The contract:
//
//   - the poller promotes the surviving follower on its own and the
//     router resumes acking writes for that group with no operator action
//     once the group is redundant again;
//   - semi-sync means every pre-kill ack was durable on both replicas, so
//     promotion loses nothing: zero acked loss, including acks whose
//     primary died right after answering;
//   - the returned old primary is demoted by epoch, snapshot-reset from
//     the new primary, and catches up until its lag reads zero;
//   - the final router aggregation is bit-identical to a single-node
//     platform.AggregateDataset run over the merged dataset.
func TestChaosReplicatedPrimaryKillZeroAckedLoss(t *testing.T) {
	const (
		numTasks      = 3
		phase1Workers = 9
		phase2Workers = 9
		victim        = 1 // group whose primary dies
	)
	root := t.TempDir()
	fleet, cfgs := newReplicatedFleet(t, root, 3, 2, platform.AckSemiSync, 5*time.Millisecond)
	store, err := NewReplicated(context.Background(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	poller := store.StartFailover(FailoverOptions{
		ProbeInterval: 20 * time.Millisecond,
		DeadInterval:  100 * time.Millisecond,
		Registry:      reg,
	})
	t.Cleanup(poller.Stop)
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
						Value: float64(-70 - w - task), Time: at(w*numTasks + task),
					}
					err := client.Submit(ctx, req)
					mu.Lock()
					// A duplicate rejection on retry proves the write landed
					// on the current primary before its ack was lost; under
					// semi-sync with the group's only follower dead that is
					// the one ack shape that may reach just one replica, and
					// the rejoining follower resets from that same primary,
					// so it still cannot be lost by the campaign's failover.
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

	// Phase 1: healthy fleet; semi-sync acks require both replicas, and
	// every submission must get one.
	load("p1", phase1Workers)
	if len(failed) != 0 {
		t.Fatalf("healthy fleet rejected %d submissions: %v", len(failed), failed[0])
	}

	// Kill the victim group's primary — hard: its WAL aborts with no final
	// snapshot. Everything it ever acked is already durable on its
	// follower (that is the semi-sync contract under test).
	oldAddr := fleet[victim].procs[0].addrOf()
	fleet[victim].procs[0].kill()

	// Phase 2 runs against the degraded fleet while the poller promotes;
	// mid-load the dead process "gets restarted by its supervisor" on the
	// same address, still claiming primacy at its stale epoch, and must be
	// demoted into the new primary's follower seat.
	restarted := make(chan *replProc, 1)
	go func() {
		// Fail soft off the test goroutine: a nil send means promotion
		// never happened, reported by the receive below.
		deadline := time.Now().Add(10 * time.Second)
		for store.Primary(victim) != 1 {
			if time.Now().After(deadline) {
				restarted <- nil
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		restarted <- startReplProc(t, filepath.Join(root, fmt.Sprintf("g%d-r0", victim)), oldAddr, platform.ReplicationOptions{
			ShipInterval: 5 * time.Millisecond,
		})
	}()
	load("p2", phase2Workers)
	old := <-restarted
	if old == nil {
		t.Fatal("poller never promoted the victim group's follower")
	}

	if n := counterOf(reg, "repl.failovers"); n < 1 {
		t.Errorf("repl.failovers = %d after the campaign, want >= 1", n)
	}

	// Only submissions owned by the victim group may have failed, and only
	// while it was below semi-sync redundancy.
	mu.Lock()
	for _, req := range failed {
		if sh := store.Shard(req.Account); sh != victim {
			t.Errorf("submission for %s (shard %d) failed with only shard %d degraded", req.Account, sh, victim)
		}
	}
	mu.Unlock()

	// The old primary rejoins as a follower of the promoted replica and
	// catches up until both cursors agree and its lag reads zero.
	rejoinDeadline := time.Now().Add(15 * time.Second)
	for {
		ost, oerr := old.client.ReplStatus(ctx)
		nst, nerr := fleet[victim].procs[1].client.ReplStatus(ctx)
		if oerr == nil && nerr == nil && ost.Role == platform.RoleFollower && ost.Lag == 0 &&
			ost.Epoch == nst.Epoch && ost.DurableSeq == nst.DurableSeq {
			break
		}
		if time.Now().After(rejoinDeadline) {
			t.Fatalf("old primary never demoted/caught up:\n  old: %+v (err %v)\n  new: %+v (err %v)\n  router primary idx: %d",
				ost, oerr, nst, nerr, store.Primary(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	probe := platform.NewClient(router.URL, platform.WithRetries(0))
	waitUntil(t, 5*time.Second, "readyz to heal after rejoin", func() bool {
		rz, err := probe.Ready(ctx)
		return err == nil && rz.Status == "ready"
	})

	// The router resumed automatically: a fresh write owned by the victim
	// group acks through the promoted follower with no reconfiguration —
	// semi-sync again, now against the rejoined old primary.
	resumed := ""
	for i := 0; resumed == ""; i++ {
		if name := fmt.Sprintf("resume-%d", i); store.Shard(name) == victim {
			resumed = name
		}
	}
	if err := probe.Submit(ctx, platform.SubmissionRequest{Account: resumed, Task: 0, Value: -5, Time: at(50)}); err != nil {
		t.Fatalf("post-failover write to the victim group: %v", err)
	}
	mu.Lock()
	ackedSet = append(ackedSet, acked{resumed, 0, -5})
	mu.Unlock()

	// Drain the submissions that failed during the redundancy gap.
	mu.Lock()
	retry := append([]platform.SubmissionRequest(nil), failed...)
	failed = failed[:0]
	mu.Unlock()
	drain := platform.NewClient(router.URL,
		platform.WithRetries(3),
		platform.WithBackoff(time.Millisecond, 20*time.Millisecond),
	)
	for _, req := range retry {
		err := drain.Submit(ctx, req)
		if err != nil && !errors.Is(err, platform.ErrDuplicateReport) {
			t.Fatalf("post-recovery submit %s/%d: %v", req.Account, req.Task, err)
		}
		mu.Lock()
		ackedSet = append(ackedSet, acked{req.Account, req.Task, req.Value})
		mu.Unlock()
	}

	// Zero acked loss: every acknowledged submission — including acks
	// whose primary died immediately after answering — is in the merged
	// dataset with the right value.
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
	want := (phase1Workers+phase2Workers)*numTasks + 1
	if len(ackedSet) != want {
		t.Errorf("%d acked submissions, want %d (every submission eventually acked)", len(ackedSet), want)
	}
	for _, a := range ackedSet {
		v, ok := values[a.account][a.task]
		if !ok {
			t.Errorf("ACKED DATA LOST: %s task %d missing after failover", a.account, a.task)
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
