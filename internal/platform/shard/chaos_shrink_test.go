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

// TestChaosDecommissionKillSurvivorPrimaryZeroAckedLoss is the acceptance
// gate for live ring shrink: a 3-group replicated fleet under sustained
// write load decommissions its MIDDLE group (the index-shift case: the
// surviving group after the gap changes slice position but must keep its
// ring placement) while
//
//   - a SURVIVOR group's primary is killed mid-handoff — the survivors
//     are the drain's targets, so the handoff must stall until failover
//     promotes the follower (post-flip) or abort cleanly and be retried
//     (pre-flip), and
//   - the router process is "restarted" mid-migration, with the journal
//     and the persisted ring floor as the only surviving state.
//
// Invariants at the end: the decommission completed, every acked write is
// present exactly once on the survivors (zero acked loss, no
// double-apply), the retiring group's data is purged on primary AND
// follower while its fence survives, the retired group is absent from
// the ring and from /readyz-backing ShardHealth, and the shrunk router's
// aggregation is bit-identical to a single-node run over the merged
// dataset.
func TestChaosDecommissionKillSurvivorPrimaryZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign")
	}
	root := t.TempDir()
	const tasks = 3
	const retired = 1

	// Three groups, two replicas each, semi-sync shipping: an ack means
	// the write is on the follower too, so killing a primary may not lose
	// it. Group 1 will retire; groups 0 and 2 survive.
	fleet, configs := newReplicatedFleet(t, root, 3, 2, platform.AckSemiSync, 10*time.Millisecond)

	ctx := context.Background()
	store1, err := NewReplicated(ctx, configs, Options{VirtualNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	// See the grow campaign for why DeadInterval must be generous under
	// sustained load on single-process httptest servers.
	fo := FailoverOptions{ProbeInterval: 25 * time.Millisecond, DeadInterval: 500 * time.Millisecond}
	poller1 := store1.StartFailover(fo)

	var cur atomic.Pointer[Store]
	cur.Store(store1)

	// Pre-seed so the snapshot stage has real bytes to ship off the
	// retiring group.
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
						break
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
	m1, err := store1.StartDecommission(retired, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	run1 := make(chan error, 1)
	go func() { run1 <- m1.Run(ctx1) }()

	// Chaos event 1: kill survivor group 0's primary AFTER the flip.
	// Group 0 is a mandatory TARGET of the post-flip drain — the
	// coordinator cannot abort any more, so it must stall the handoff
	// until failover promotes the follower and land the drain there. (A
	// pre-flip target death is the grow campaign's abort-and-retry path;
	// the post-flip stall is the hazard specific to shrink.) If the drain
	// outruns the journal poll and finishes first, the kill degrades into
	// the also-interesting "survivor primary dead at restart" case.
	killDeadline := time.After(15 * time.Second)
	var run1Err error
	run1Done := false
	for flipped := false; !flipped && !run1Done; {
		select {
		case run1Err = <-run1:
			run1Done = true
		case <-killDeadline:
			t.Fatal("decommission never reached the flip")
		case <-time.After(5 * time.Millisecond):
			if j, ok, _ := LoadMigrationJournal(journalPath); ok && (j.Flipped() || j.Phase == MigrationAborted) {
				flipped = true
			}
		}
	}
	fleet[0].procs[0].kill()
	t.Logf("killed survivor group 0 primary post-flip (t=%v, run1 done=%v)", time.Since(t0), run1Done)
	follower := platform.NewClient(fleet[0].procs[1].srv.URL, platform.WithRetries(0))
	waitUntil(t, 15*time.Second, "survivor follower promoted", func() bool {
		rs, err := follower.ReplStatus(ctx)
		return err == nil && rs.Role == platform.RolePrimary
	})
	t.Logf("survivor follower promoted (t=%v)", time.Since(t0))

	// Chaos event 2: "restart the router" — abandon the old process
	// mid-stall; the journal (and ring floor) are the only state that
	// survives.
	if !run1Done {
		cancel1()
		run1Err = <-run1
	}
	cancel1()
	poller1.Stop()
	t.Logf("router restart with journal-only state (t=%v, old run: %v)", time.Since(t0), run1Err)

	j, ok, err := LoadMigrationJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	survivors := []GroupConfig{configs[0], configs[2]}
	var store2 *Store
	var m2 *Migration
	switch {
	case ok && j.Phase == MigrationDone:
		// Finished before the restart: the new router boots with the
		// survivor configuration and adopts the journaled ring shape —
		// the gapped seeds are exactly why AdoptRingState exists.
		store2, err = NewReplicated(ctx, survivors, Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := store2.AdoptRingState(j.RingVersion, j.Seeds, j.Weights); err != nil {
			t.Fatal(err)
		}
	case ok && j.Pending():
		// Mid-flight: the retiring group must stay configured until the
		// journal reads done.
		store2, err = NewReplicated(ctx, configs, Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		m2, err = store2.ResumeMigration(GroupConfig{}, j, opts)
		if err != nil {
			t.Fatalf("resume from journal %+v: %v", j, err)
		}
	default:
		// Aborted: retry the decommission fresh.
		store2, err = NewReplicated(ctx, configs, Options{VirtualNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		m2, err = store2.StartDecommission(retired, opts)
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
			// One retry: pre-flip failures abort (ring untouched, start
			// fresh); post-flip failures leave a resumable journal.
			t.Logf("decommission attempt failed (%v); retrying once", err)
			j2, ok2, _ := LoadMigrationJournal(journalPath)
			switch {
			case ok2 && j2.Pending():
				m2, err = store2.ResumeMigration(GroupConfig{}, j2, opts)
				if err != nil {
					t.Fatal(err)
				}
			case store2.RingVersion() == 1:
				m2, err = store2.StartDecommission(retired, opts)
				if err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatalf("failed decommission left ring at v%d with journal %+v", store2.RingVersion(), j2)
			}
			if err := m2.Run(ctx); err != nil {
				t.Fatalf("retried decommission: %v", err)
			}
		}
	}

	t.Logf("decommission complete (t=%v)", time.Since(t0))
	time.Sleep(50 * time.Millisecond)
	close(stopLoad)
	wg.Wait()

	if v := store2.RingVersion(); v != 2 {
		t.Errorf("final ring version = %d, want 2", v)
	}
	if n := store2.Shards(); n != 2 {
		t.Errorf("final shard count = %d, want 2", n)
	}
	jf, ok, err := LoadMigrationJournal(journalPath)
	if err != nil || !ok || jf.Phase != MigrationDone || jf.Kind != MigrationShrink {
		t.Errorf("final journal = %+v ok=%v err=%v, want a done shrink", jf, ok, err)
	}
	if len(jf.Seeds) != 2 || jf.Seeds[0] != 0 || jf.Seeds[1] != 2 {
		t.Errorf("final journal seeds = %v, want the survivors' gapped seeds [0 2]", jf.Seeds)
	}

	// The retired group is gone from health reporting: /readyz is built
	// from ShardHealth, and no retired-group address may appear there.
	retiredAddrs := make(map[string]bool)
	for _, a := range configs[retired].Addrs {
		retiredAddrs[a] = true
	}
	for _, h := range store2.ShardHealth(ctx) {
		if retiredAddrs[h.Addr] {
			t.Errorf("retired group address %s still reported by ShardHealth", h.Addr)
		}
	}

	// Zero acked loss, no double-apply, values intact.
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
				t.Errorf("acked account %s lost after decommission (v2 owner=shard %d, acked at t=%v)",
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
	// The retiring group owned real keys on the old ring — they all had
	// to move to the survivors.
	oldRing := NewRing(3, 16)
	moved := 0
	for acct := range acked {
		if oldRing.Shard(acct) == retired {
			moved++
		}
		if gi := store2.Shard(acct); gi < 0 || gi > 1 {
			t.Errorf("account %s routed to shard %d on a 2-shard ring", acct, gi)
		}
	}
	if moved == 0 {
		t.Error("retired group owned no acked accounts; the fixture is broken")
	}
	t.Logf("%d acked accounts, %d drained off the retired group", len(acked), moved)

	// The retired group's replicas hold no account data (the journaled
	// purge reached the primary and shipped to the follower), and memory
	// is released on both.
	for ri, p := range fleet[retired].procs {
		p := p
		waitUntil(t, 10*time.Second, fmt.Sprintf("retired replica %d purged", ri), func() bool {
			dds, err := p.store.Dataset(ctx)
			return err == nil && len(dds.Accounts) == 0
		})
	}

	// Bit-identical aggregation on the shrunk fleet, against a fresh
	// gather of the shrunk ring.
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
