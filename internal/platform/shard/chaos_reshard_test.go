package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// TestChaosReshardKillMidMigrationZeroAckedLoss is the acceptance gate for
// online resharding: a 2-group replicated fleet under sustained write load
// grows to 3 groups while
//
//   - a donor primary is killed mid-handoff (failover must promote its
//     follower and the migration must resume against the promotion), and
//   - the router process is "restarted" mid-migration (the coordinator
//     journal on disk is the only state that survives; the fresh router
//     must resume — or cleanly abort and retry — from it).
//
// Invariants at the end: the migration completed, every acked write is
// present exactly once (zero acked loss, no double-apply), the grown
// router's aggregation is bit-identical to a single-node run over the
// merged dataset, and the ring sits at version 2 over 3 shards.
func TestChaosReshardKillMidMigrationZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign")
	}
	root := t.TempDir()
	const tasks = 3

	// Two donor groups, two replicas each, semi-sync shipping: an ack
	// means the write is on the follower too, so killing the primary may
	// not lose it.
	fleet, configs := newReplicatedFleet(t, root, 2, 2, platform.AckSemiSync, 10*time.Millisecond)
	_, joinerConfigs := newReplicatedFleet(t, filepath.Join(root, "join"), 1, 2, platform.AckSemiSync, 10*time.Millisecond)
	joinCfg := joinerConfigs[0]

	ctx := context.Background()
	store1, err := NewReplicated(ctx, configs, Options{VirtualNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	// DeadInterval doubles as the probe's answer deadline: it must be
	// generous enough that the sustained load (which saturates these
	// single-process httptest servers, especially under -race) cannot
	// manufacture a false death — a spurious promotion starts a failover
	// ping-pong that invalidates the migration's cursors every few
	// seconds and the catch-up never converges.
	fo := FailoverOptions{ProbeInterval: 25 * time.Millisecond, DeadInterval: 500 * time.Millisecond}
	poller1 := store1.StartFailover(fo)

	// cur is "the router": workers always write through whatever process
	// currently plays that role, surviving the restart swap below.
	var cur atomic.Pointer[Store]
	cur.Store(store1)

	// Pre-seed so the snapshot stage has real bytes to ship.
	var mu sync.Mutex
	t0 := time.Now()
	acked := make(map[string]float64)
	ackedAt := make(map[string]time.Duration)
	for i := 0; i < 24; i++ {
		acct := fmt.Sprintf("seed-%d", i)
		for task := 0; task < tasks; task++ {
			if err := store1.Submit(ctx, acct, task, float64(i+task), at(task)); err != nil {
				t.Fatal(err)
			}
		}
		acked[acct] = float64(i)
	}

	// Sustained load: every submit is retried until acked; a duplicate
	// reply means an earlier attempt landed, which counts as acked.
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				acct := fmt.Sprintf("live-%d-%d", w, i)
				val := float64(w*1000 + i)
				for {
					err := cur.Load().Submit(ctx, acct, i%tasks, val, at(i%tasks))
					if err == nil || errors.Is(err, platform.ErrDuplicateReport) {
						break // a duplicate reply means an earlier attempt landed
					}
					select {
					case <-stopLoad:
						return
					case <-time.After(time.Millisecond):
					}
				}
				mu.Lock()
				acked[acct] = val
				ackedAt[acct] = time.Since(t0)
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	journalPath := filepath.Join(root, "reshard.json")
	reg := obs.NewRegistry()
	opts := MigrationOptions{JournalPath: journalPath, PollInterval: 5 * time.Millisecond, Registry: reg}
	m1, err := store1.StartMigration(joinCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	run1 := make(chan error, 1)
	go func() { run1 <- m1.Run(ctx1) }()

	// Chaos event 1: kill donor group 0's primary mid-handoff. Failover
	// must promote the follower; the coordinator's donor probes must
	// re-resolve and resume shipping from the promotion. Wait for the
	// promotion to be visible before the next chaos event: a router that
	// restarts while a group has a dead, never-promoted primary is
	// (deliberately) fenced from promoting it — that scenario needs an
	// operator, not this campaign.
	time.Sleep(30 * time.Millisecond)
	fleet[0].procs[0].kill()
	t.Logf("killed donor group 0 primary mid-migration (t=%v)", time.Since(t0))
	follower := platform.NewClient(fleet[0].procs[1].srv.URL, platform.WithRetries(0))
	waitUntil(t, 15*time.Second, "donor follower promoted", func() bool {
		rs, err := follower.ReplStatus(ctx)
		return err == nil && rs.Role == platform.RolePrimary
	})
	t.Logf("donor follower promoted (t=%v)", time.Since(t0))

	// Let the migration make progress against the promoted follower, then
	// chaos event 2: "restart the router" — abandon the old process
	// (cancel its coordinator, stop its poller) and bring up a fresh one
	// whose only migration knowledge is the journal file.
	deadline := time.After(15 * time.Second)
	var run1Err error
wait:
	for {
		select {
		case run1Err = <-run1:
			break wait // finished (or aborted) before we pulled the plug
		case <-deadline:
			t.Fatal("migration made no progress after donor kill")
		case <-time.After(10 * time.Millisecond):
			if j, ok, _ := LoadMigrationJournal(journalPath); ok && j.Phase != MigrationSeeding {
				cancel1()
				run1Err = <-run1
				break wait
			}
		}
	}
	cancel1()
	poller1.Stop()
	t.Logf("router restart with journal-only state (t=%v, old run: %v)", time.Since(t0), run1Err)

	j, ok, err := LoadMigrationJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var store2 *Store
	var m2 *Migration
	switch {
	case ok && j.Phase == MigrationDone:
		// Finished before the restart: the new router starts with the
		// grown config and adopts the journaled ring version.
		store2, err = NewReplicated(ctx, append(append([]GroupConfig{}, configs...), joinCfg), Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		store2.AdoptRingVersion(j.RingVersion)
	case ok && j.Pending():
		store2, err = NewReplicated(ctx, configs, Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		m2, err = store2.ResumeMigration(joinCfg, j, opts)
		if err != nil {
			t.Fatalf("resume from journal %+v: %v", j, err)
		}
	default:
		// Aborted (or no journal survived): retry the migration fresh.
		store2, err = NewReplicated(ctx, configs, Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		m2, err = store2.StartMigration(joinCfg, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	poller2 := store2.StartFailover(fo)
	defer poller2.Stop()
	cur.Store(store2)
	t.Logf("swapped to restarted router (t=%v)", time.Since(t0))
	if m2 != nil {
		if err := m2.Run(ctx); err != nil {
			// One retry: the fleet may still be converging on the promoted
			// primary. A clean abort must leave the ring untouched.
			t.Logf("resumed migration failed (%v); retrying once", err)
			if store2.RingVersion() != 1 {
				t.Fatalf("failed migration left ring at v%d", store2.RingVersion())
			}
			m2, err = store2.StartMigration(joinCfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m2.Run(ctx); err != nil {
				t.Fatalf("retried migration: %v", err)
			}
		}
	}

	t.Logf("migration complete (t=%v)", time.Since(t0))
	// Keep load running briefly against the grown fleet, then stop.
	time.Sleep(50 * time.Millisecond)
	close(stopLoad)
	wg.Wait()

	if v := store2.RingVersion(); v != 2 {
		t.Errorf("final ring version = %d, want 2", v)
	}
	if n := store2.Shards(); n != 3 {
		t.Errorf("final shard count = %d, want 3", n)
	}
	jf, ok, err := LoadMigrationJournal(journalPath)
	if err != nil || !ok || jf.Phase != MigrationDone {
		t.Errorf("final journal = %+v ok=%v err=%v, want done", jf, ok, err)
	}
	if g := reg.Snapshot().Gauges; g["reshard.keys_moved"] < 1 {
		t.Errorf("reshard.keys_moved = %d, want > 0", g["reshard.keys_moved"])
	}

	// Zero acked loss, no double-apply: every acked account is present
	// exactly once with its value intact; the joiner actually owns keys.
	ds, err := store2.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	byID := make(map[string]int)
	for _, a := range ds.Accounts {
		byID[a.ID]++
	}
	lost := 0
	for acct := range acked {
		switch byID[acct] {
		case 0:
			lost++
			if lost <= 5 {
				t.Errorf("acked account %s lost after reshard (v2 owner=shard %d, acked at t=%v)",
					acct, store2.Shard(acct), ackedAt[acct])
			}
		case 1:
		default:
			t.Errorf("acked account %s present %d times (double-apply)", acct, byID[acct])
		}
	}
	if lost > 5 {
		t.Errorf("... and %d more acked accounts lost", lost-5)
	}
	for _, a := range ds.Accounts {
		want, isAcked := acked[a.ID]
		if !isAcked {
			continue
		}
		for _, obs := range a.Observations {
			if len(a.Observations) == 1 && obs.Value != want && strings.HasPrefix(a.ID, "live") {
				t.Errorf("account %s holds value %v, want %v", a.ID, obs.Value, want)
			}
		}
	}
	moved := 0
	for acct := range acked {
		if store2.Shard(acct) == 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("grown ring assigned no acked accounts to the joiner")
	}
	t.Logf("%d acked accounts, %d owned by the joiner", len(acked), moved)

	// Bit-identical aggregation: the grown router must compute exactly
	// what a single node computes over a fresh gather of the grown ring.
	ref := freshGather(t, store2)
	for _, method := range []string{"mean", "crh", "td-ts"} {
		res, _, err := store2.Aggregate(ctx, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		want, _, err := platform.AggregateDataset(ctx, method, ref)
		if err != nil {
			t.Fatalf("%s single-node: %v", method, err)
		}
		for task := range want.Truths {
			if res.Truths[task] != want.Truths[task] {
				t.Errorf("%s task %d: sharded %v != single-node %v", method, task, res.Truths[task], want.Truths[task])
			}
		}
	}
}
