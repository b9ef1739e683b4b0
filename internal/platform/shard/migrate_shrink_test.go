package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// durableBackendAt is durableBackend with a caller-owned directory and
// durability handle, for tests that restart a backend from its WAL.
func durableBackendAt(t testing.TB, dir string, tasks int) (*platform.LocalStore, *platform.Durability) {
	t.Helper()
	store, d, _, err := platform.OpenDurable(dir, testTasks(tasks), platform.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return store, d
}

// TestDecommissionDrainsToSurvivorsEndToEnd is the shrink tentpole's
// happy path under live load: a 3-shard durable fleet retires group 1
// while writers hammer it, no write ever surfaces an error, every
// account lands exactly once on the survivors, the donor's data is
// purged (but its fence keeps answering wrong_shard), and the shrunk
// router aggregates bit-identically to a single node over the merged
// dataset.
func TestDecommissionDrainsToSurvivorsEndToEnd(t *testing.T) {
	s, locals := newDurableFleet(t, 3, 2)
	ctx := context.Background()
	const pre = 90
	oldOwner := make(map[string]int, pre)
	for i := 0; i < pre; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		for task := 0; task < 2; task++ {
			if err := s.Submit(ctx, acct, task, float64(i+task), at(task)); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			if err := s.RecordFingerprintFeatures(ctx, acct, testFeatures(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		oldOwner[acct] = s.Shard(acct)
	}

	// Live load racing the cutover: a write may see the flip mid-flight
	// but must never surface an error to the caller.
	var mu sync.Mutex
	acked := make(map[string]float64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				acct := fmt.Sprintf("live-%d-%d", w, i)
				val := float64(w*1000 + i)
				if err := s.Submit(ctx, acct, i%2, val, at(i%2)); err != nil && !errors.Is(err, platform.ErrDuplicateReport) {
					t.Errorf("live write %s: %v", acct, err)
					return
				}
				mu.Lock()
				acked[acct] = val
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	reg := obs.NewRegistry()
	opts := migOpts(t)
	opts.Registry = reg
	m, err := s.StartDecommission(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.RingStatus().Migrating {
		t.Error("RingStatus does not flag the in-flight decommission")
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	close(stop)
	wg.Wait()

	if v := s.RingVersion(); v != 2 {
		t.Errorf("ring version = %d, want 2", v)
	}
	if n := s.Shards(); n != 2 {
		t.Errorf("shard count = %d, want 2", n)
	}
	j := m.Journal()
	if j.Phase != MigrationDone || j.Kind != MigrationShrink || j.Retired != 1 {
		t.Errorf("journal = %+v, want done shrink retiring group 1", j)
	}
	if jf, ok, err := LoadMigrationJournal(opts.JournalPath); err != nil || !ok || jf.Phase != MigrationDone || jf.Kind != MigrationShrink {
		t.Errorf("persisted journal = %+v ok=%v err=%v, want done shrink", jf, ok, err)
	}
	if len(j.Seeds) != 2 || j.Seeds[0] != 0 || j.Seeds[1] != 2 {
		t.Errorf("journal seeds = %v, want the survivors' gapped seeds [0 2]", j.Seeds)
	}

	// Observability: the gauges describe a finished shrink, lag zeroed.
	g := reg.Snapshot().Gauges
	if g["reshard.state"] != migrationStateGauge(MigrationDone) {
		t.Errorf("reshard.state = %d, want %d (done)", g["reshard.state"], migrationStateGauge(MigrationDone))
	}
	if g["reshard.kind"] != migrationKindGauge(MigrationShrink) {
		t.Errorf("reshard.kind = %d, want %d (shrink)", g["reshard.kind"], migrationKindGauge(MigrationShrink))
	}
	if g["reshard.catchup_lag_records"] != 0 {
		t.Errorf("reshard.catchup_lag_records = %d, want 0 after done", g["reshard.catchup_lag_records"])
	}
	if j.KeysMoved < 1 {
		t.Errorf("keys_moved = %d, want > 0", j.KeysMoved)
	}

	// Zero loss, no double-apply: pre-seeded and acked live accounts are
	// all present exactly once on the survivors.
	ds, err := s.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]int)
	for _, a := range ds.Accounts {
		byID[a.ID]++
	}
	mu.Lock()
	for acct := range acked {
		if byID[acct] != 1 {
			t.Errorf("acked account %s present %d times, want 1", acct, byID[acct])
		}
	}
	mu.Unlock()
	movedTotal := 0
	for i := 0; i < pre; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if byID[acct] != 1 {
			t.Errorf("pre-seeded account %s present %d times, want 1", acct, byID[acct])
		}
		if oldOwner[acct] == 1 {
			movedTotal++
			if got := s.Shard(acct); got > 1 {
				t.Errorf("moved account %s routed to shard %d on a 2-shard ring", acct, got)
			}
		}
	}
	if movedTotal == 0 {
		t.Fatal("retired group owned no accounts; the ring fixture is broken")
	}

	// The donor's account data is purged — memory released — but the
	// fence lives on: a stray write direct to the retired backend is
	// still refused with wrong_shard, never silently accepted.
	dds, err := locals[1].Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dds.Accounts) != 0 {
		t.Errorf("retired donor still holds %d accounts after purge", len(dds.Accounts))
	}
	if c := counterOf(reg, "reshard.purged_accounts"); c < int64(movedTotal) {
		t.Errorf("reshard.purged_accounts = %d, want >= %d", c, movedTotal)
	}
	var fencedAcct string
	for acct, gi := range oldOwner {
		if gi == 1 {
			fencedAcct = acct
			break
		}
	}
	if err := locals[1].Submit(ctx, fencedAcct, 0, 1, at(1)); !errors.Is(err, platform.ErrWrongShard) {
		t.Errorf("direct write to the purged donor = %v, want ErrWrongShard", err)
	}

	// Bit-identical aggregation across the shrunk fleet, against a fresh
	// gather of the shrunk ring.
	ref := freshGather(t, s)
	for _, method := range []string{"mean", "crh", "td-ts"} {
		res, _, err := s.Aggregate(ctx, method)
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

// TestRebalanceMovesOnlyWeightDelta: re-weighting a 3-shard fleet to
// [2,1,1] moves exactly the upweighted group's gain — every moved
// account lands on group 0, nothing else shifts, donors purge what they
// gave up, and the fleet's per-backend datasets partition the account
// set by new ownership.
func TestRebalanceMovesOnlyWeightDelta(t *testing.T) {
	s, locals := newDurableFleet(t, 3, 2)
	ctx := context.Background()
	const pre = 90
	oldOwner := make(map[string]int, pre)
	for i := 0; i < pre; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if err := s.Submit(ctx, acct, i%2, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
		oldOwner[acct] = s.Shard(acct)
	}

	reg := obs.NewRegistry()
	opts := migOpts(t)
	opts.Registry = reg
	m, err := s.StartRebalance([]float64{2, 1, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	if v, n := s.RingVersion(), s.Shards(); v != 2 || n != 3 {
		t.Errorf("ring v%d over %d shards, want v2 over 3 (rebalance keeps the group count)", v, n)
	}
	j := m.Journal()
	if j.Phase != MigrationDone || j.Kind != MigrationRebalance {
		t.Errorf("journal = %+v, want done rebalance", j)
	}
	if len(j.Weights) != 3 || j.Weights[0] != 2 {
		t.Errorf("journal weights = %v, want [2 1 1]", j.Weights)
	}
	if g := reg.Snapshot().Gauges; g["reshard.kind"] != migrationKindGauge(MigrationRebalance) {
		t.Errorf("reshard.kind = %d, want %d (rebalance)", g["reshard.kind"], migrationKindGauge(MigrationRebalance))
	}

	moved := 0
	for acct, was := range oldOwner {
		now := s.Shard(acct)
		if now == was {
			continue
		}
		moved++
		if now != 0 {
			t.Errorf("account %s moved to group %d, want only moves onto the upweighted group 0", acct, now)
		}
	}
	if moved == 0 {
		t.Fatal("rebalance moved no accounts; the ring fixture is broken")
	}

	// Every backend holds exactly the accounts the new ring assigns it:
	// targets received their gain, donors purged what they gave up.
	for gi, l := range locals {
		ds, err := l.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		holds := make(map[string]bool, len(ds.Accounts))
		for _, a := range ds.Accounts {
			holds[a.ID] = true
		}
		for acct := range oldOwner {
			if want := s.Shard(acct) == gi; holds[acct] != want {
				t.Errorf("backend %d holds %s = %v, want %v", gi, acct, holds[acct], want)
			}
		}
	}

	ds, err := s.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumAccounts(); got != pre {
		t.Errorf("merged dataset holds %d accounts, want %d", got, pre)
	}
}

// TestRebalanceRefusesBadWeights pins the operator-input contract: a
// no-op weight vector, a wrong-length vector, and a non-positive weight
// are all refused as malformed without wedging the migrating flag.
func TestRebalanceRefusesBadWeights(t *testing.T) {
	s, _ := newDurableFleet(t, 3, 2)
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"unchanged", []float64{1, 1, 1}},
		{"wrong length", []float64{2, 1}},
		{"zero weight", []float64{0, 1, 1}},
		{"negative weight", []float64{-1, 1, 1}},
	} {
		if _, err := s.StartRebalance(tc.weights, migOpts(t)); !errors.Is(err, platform.ErrMalformedRequest) {
			t.Errorf("%s: StartRebalance = %v, want ErrMalformedRequest", tc.name, err)
		}
		if s.RingStatus().Migrating {
			t.Fatalf("%s: refusal left the migrating flag raised", tc.name)
		}
	}
	// A valid vector still goes through after the refusals.
	if _, err := s.StartRebalance([]float64{2, 1, 1}, migOpts(t)); err != nil {
		t.Errorf("valid rebalance after refusals: %v", err)
	}
}

// TestDecommissionRefusals pins the shrink guardrails: out-of-range
// groups, the last group, and resume journals that no longer match the
// configuration are refused, and a refusal never wedges the migrating
// flag.
func TestDecommissionRefusals(t *testing.T) {
	s, _ := newDurableFleet(t, 2, 2)
	for _, gi := range []int{-1, 2, 7} {
		if _, err := s.StartDecommission(gi, migOpts(t)); !errors.Is(err, platform.ErrMalformedRequest) {
			t.Errorf("StartDecommission(%d) = %v, want ErrMalformedRequest", gi, err)
		}
		if s.RingStatus().Migrating {
			t.Fatalf("refusal for group %d left the migrating flag raised", gi)
		}
	}
	if _, err := s.StartDecommission(0, MigrationOptions{}); err == nil {
		t.Error("StartDecommission without a journal path succeeded")
	}

	single, err := New(context.Background(), []platform.Store{durableBackend(t, 2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.StartDecommission(0, migOpts(t)); !errors.Is(err, platform.ErrMalformedRequest) {
		t.Errorf("decommissioning the last group = %v, want ErrMalformedRequest", err)
	}

	// Resume-side: an unknown kind and a retired index beyond the
	// configuration are both corrupt-journal shapes that must refuse
	// rather than guess.
	base := MigrationJournal{
		RingVersion: 2, Phase: MigrationSeeding, Kind: MigrationShrink,
		Retired: 0, Seeds: []int{1}, Cursors: make([]uint64, 1), CursorEpochs: make([]uint64, 1),
	}
	bad := base
	bad.Kind = "sideways"
	if _, err := s.ResumeMigration(GroupConfig{}, bad, migOpts(t)); err == nil {
		t.Error("resume with an unknown journal kind succeeded")
	}
	bad = base
	bad.Retired = 5
	if _, err := s.ResumeMigration(GroupConfig{}, bad, migOpts(t)); err == nil {
		t.Error("resume retiring an unconfigured group succeeded")
	}

	// A shrink journal naming a retiring address that is not at the
	// journaled position means the operator already removed the group
	// from the configuration — resuming would drain the wrong group.
	addressed, err := NewReplicated(context.Background(), []GroupConfig{
		{Replicas: []platform.Store{durableBackend(t, 2)}, Addrs: []string{"http://a"}},
		{Replicas: []platform.Store{durableBackend(t, 2)}, Addrs: []string{"http://b"}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mismatched := base
	mismatched.Addrs = []string{"http://gone"}
	if _, err := addressed.ResumeMigration(GroupConfig{}, mismatched, migOpts(t)); err == nil {
		t.Error("resume with a mismatched retiring address succeeded")
	}
	if s.RingStatus().Migrating || addressed.RingStatus().Migrating {
		t.Error("resume refusals left a migrating flag raised")
	}
}

// TestDecommissionAbortResetsGauges is the stale-gauge bugfix test: a
// decommission that aborts pre-flip (the retiring donor cannot export)
// must stamp the terminal gauges — state=aborted, catch-up lag zeroed,
// duration stamped — instead of leaving them describing a run that is no
// longer happening. The ring must be untouched and a fresh migration
// startable.
func TestDecommissionAbortResetsGauges(t *testing.T) {
	// The retiring donor wraps its store in failingStore, which hides the
	// Exporter capability — seeding fails with a permanent error.
	backends := []platform.Store{
		durableBackend(t, 2),
		&failingStore{Store: durableBackend(t, 2), err: errors.New("disk on fire")},
	}
	s, err := New(context.Background(), backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := migOpts(t)
	opts.Registry = reg
	m, err := s.StartDecommission(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background()); err == nil {
		t.Fatal("decommission with an export-less donor reported success")
	}

	if m.Journal().Phase != MigrationAborted {
		t.Errorf("journal phase = %q, want aborted", m.Journal().Phase)
	}
	g := reg.Snapshot().Gauges
	if g["reshard.state"] != migrationStateGauge(MigrationAborted) {
		t.Errorf("reshard.state = %d, want %d (aborted)", g["reshard.state"], migrationStateGauge(MigrationAborted))
	}
	if g["reshard.catchup_lag_records"] != 0 {
		t.Errorf("reshard.catchup_lag_records = %d, want 0 after abort", g["reshard.catchup_lag_records"])
	}
	if _, ok := g["reshard.duration_seconds"]; !ok {
		t.Error("reshard.duration_seconds not stamped on abort")
	}
	if v, n := s.RingVersion(), s.Shards(); v != 1 || n != 2 {
		t.Errorf("abort changed the ring: v%d over %d shards, want v1 over 2", v, n)
	}
	if s.RingStatus().Migrating {
		t.Error("migrating flag still raised after abort")
	}
	if _, err := s.StartRebalance([]float64{2, 1}, migOpts(t)); err != nil {
		t.Errorf("fresh migration after the abort refused: %v", err)
	}
}

// TestShrinkResumeFromSeedingJournal is the pre-flip router-restart path
// for a decommission: the router dies right after journaling the shrink,
// a fresh router over the full (retiring group included) configuration
// resumes from the journal and completes the drain.
func TestShrinkResumeFromSeedingJournal(t *testing.T) {
	backends := make([]platform.Store, 3)
	locals := make([]*platform.LocalStore, 3)
	for i := range backends {
		locals[i] = durableBackend(t, 2)
		backends[i] = locals[i]
	}
	ctx := context.Background()
	s1, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s1.Submit(ctx, fmt.Sprintf("pre-%d", i), i%2, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	opts := migOpts(t)
	if _, err := s1.StartDecommission(1, opts); err != nil {
		t.Fatal(err)
	}
	// Router dies here: the journal says "seeding", nothing was shipped.

	s2, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok, err := LoadMigrationJournal(opts.JournalPath)
	if err != nil || !ok {
		t.Fatalf("load journal: ok=%v err=%v", ok, err)
	}
	if !j.Pending() || j.Flipped() || j.Kind != MigrationShrink {
		t.Fatalf("journal %+v, want a pending pre-flip shrink", j)
	}
	m2, err := s2.ResumeMigration(GroupConfig{}, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(ctx); err != nil {
		t.Fatalf("resumed decommission: %v", err)
	}
	if v, n := s2.RingVersion(), s2.Shards(); v != 2 || n != 2 {
		t.Errorf("resumed shrink ended at ring v%d over %d shards, want v2 over 2", v, n)
	}
	ds, err := s2.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumAccounts(); got != 60 {
		t.Errorf("merged dataset holds %d accounts, want 60", got)
	}
	if dds, err := locals[1].Dataset(ctx); err != nil || len(dds.Accounts) != 0 {
		t.Errorf("retired donor holds %d accounts (err=%v), want 0 after purge", len(dds.Accounts), err)
	}
}

// TestShrinkResumeCompletesAfterFlip is the crash-after-cutover path for
// a decommission: the journal says flipped, so a fresh router must
// reinstall the shrunk candidate topology immediately (before any
// traffic routes by the stale 3-group ring into the fenced donor) and
// then finish fence/drain/purge.
func TestShrinkResumeCompletesAfterFlip(t *testing.T) {
	backends := make([]platform.Store, 3)
	locals := make([]*platform.LocalStore, 3)
	for i := range backends {
		locals[i] = durableBackend(t, 2)
		backends[i] = locals[i]
	}
	ctx := context.Background()
	s1, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s1.Submit(ctx, fmt.Sprintf("pre-%d", i), i%2, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	opts := migOpts(t)
	m1, err := s1.StartDecommission(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the first half of Run by hand, crashing right after the flip
	// hits the journal.
	if err := m1.seedAndCatchup(ctx); err != nil {
		t.Fatal(err)
	}
	s1.installTopology(m1.cand)
	m1.stampRetired()
	if err := m1.setPhase(MigrationFlipped); err != nil {
		t.Fatal(err)
	}
	// Router dies here.

	s2, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok, err := LoadMigrationJournal(opts.JournalPath)
	if err != nil || !ok || !j.Flipped() || j.Kind != MigrationShrink {
		t.Fatalf("journal %+v ok=%v err=%v, want a flipped shrink", j, ok, err)
	}
	m2, err := s2.ResumeMigration(GroupConfig{}, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The flip must be visible BEFORE Run: the donors are already fenced
	// at v2, so serving the old 3-group ring would refuse every moved key.
	if v, n := s2.RingVersion(), s2.Shards(); v != 2 || n != 2 {
		t.Fatalf("post-flip resume serves ring v%d over %d shards before Run, want v2 over 2", v, n)
	}
	if err := m2.Run(ctx); err != nil {
		t.Fatalf("resumed decommission: %v", err)
	}
	if m2.Journal().Phase != MigrationDone {
		t.Errorf("journal phase = %q, want done", m2.Journal().Phase)
	}
	ds, err := s2.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumAccounts(); got != 60 {
		t.Errorf("merged dataset holds %d accounts, want 60", got)
	}
	if dds, err := locals[1].Dataset(ctx); err != nil || len(dds.Accounts) != 0 {
		t.Errorf("retired donor holds %d accounts (err=%v), want 0 after purge", len(dds.Accounts), err)
	}
	// Writes keep landing on the shrunk fleet.
	if err := s2.Submit(ctx, "post-shrink", 0, 1, at(1)); err != nil {
		t.Errorf("write after resumed shrink: %v", err)
	}
}

// TestMigrationJournalCorruptAndEmptyRecovery is the fsync-bugfix
// satellite's observable contract: a missing journal is a clean "no
// migration", but an empty or corrupt one — the torn states the
// write+fsync+rename discipline exists to prevent — is a hard error the
// boot path must surface, and after the operator removes the bad file a
// fresh migration journals cleanly with no .tmp debris left behind.
func TestMigrationJournalCorruptAndEmptyRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reshard.json")
	if _, ok, err := LoadMigrationJournal(path); ok || err != nil {
		t.Fatalf("missing journal: ok=%v err=%v, want ok=false err=nil", ok, err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMigrationJournal(path); err == nil {
		t.Error("empty journal loaded without error")
	}
	if err := os.WriteFile(path, []byte(`{"ring_version": 2, "phase": "seed`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMigrationJournal(path); err == nil {
		t.Error("corrupt journal loaded without error")
	}

	// Operator recovery: remove the bad file, start fresh.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	s, _ := newDurableFleet(t, 2, 2)
	opts := migOpts(t)
	opts.JournalPath = path
	if _, err := s.StartDecommission(1, opts); err != nil {
		t.Fatal(err)
	}
	j, ok, err := LoadMigrationJournal(path)
	if err != nil || !ok || j.Kind != MigrationShrink || j.Phase != MigrationSeeding {
		t.Errorf("journal after fresh start = %+v ok=%v err=%v, want a seeding shrink", j, ok, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("journal .tmp file left behind (stat err=%v)", err)
	}
}

// TestRingFloorPersistAdoptRefuse covers the persisted ring-version
// floor: the floor file tracks every topology install, a rebooting
// router adopts it (reproducing the exact post-shrink gapped-seed ring),
// refuses to serve when the configuration no longer matches, and refuses
// to parse a torn file.
func TestRingFloorPersistAdoptRefuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring_state.json")
	if _, ok, err := LoadRingState(path); ok || err != nil {
		t.Fatalf("missing ring state: ok=%v err=%v, want ok=false err=nil", ok, err)
	}

	backends := []platform.Store{durableBackend(t, 2), durableBackend(t, 2)}
	ctx := context.Background()
	s1, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.EnableRingStatePersistence(path); err != nil {
		t.Fatal(err)
	}
	st, ok, err := LoadRingState(path)
	if err != nil || !ok || st.Floor != 1 {
		t.Fatalf("fresh floor = %+v ok=%v err=%v, want floor 1", st, ok, err)
	}

	// A topology install (here: adopting a recorded post-shrink shape
	// with gapped seeds and weights) rewrites the floor file.
	if err := s1.AdoptRingState(3, []int{0, 2}, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	st, ok, err = LoadRingState(path)
	if err != nil || !ok {
		t.Fatalf("reload floor: ok=%v err=%v", ok, err)
	}
	if st.Floor != 3 || len(st.Seeds) != 2 || st.Seeds[1] != 2 || len(st.Weights) != 2 || st.Weights[0] != 2 {
		t.Errorf("persisted floor = %+v, want floor 3, seeds [0 2], weights [2 1]", st)
	}

	// A rebooting router adopts the recorded shape and reproduces the
	// exact ring — gapped seeds and all.
	s2, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AdoptRingState(st.Floor, st.Seeds, st.Weights); err != nil {
		t.Fatal(err)
	}
	if v := s2.RingVersion(); v != 3 {
		t.Errorf("adopted ring version = %d, want 3", v)
	}
	want := NewRingWeighted([]int{0, 2}, []float64{2, 1}, DefaultVirtualNodes)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("acct-%d", i)
		if got := s2.Shard(key); got != want.Shard(key) {
			t.Fatalf("adopted ring routes %q to %d, recorded shape says %d", key, got, want.Shard(key))
		}
	}
	// Re-adopting an older version is a no-op, not a downgrade.
	if err := s2.AdoptRingState(2, st.Seeds, st.Weights); err != nil || s2.RingVersion() != 3 {
		t.Errorf("older adopt: err=%v version=%d, want nil no-op at 3", err, s2.RingVersion())
	}

	// A configuration that no longer matches the recorded shape must be
	// refused — serving from a guessed ring routes writes to non-owners.
	s3, err := New(ctx, append(backends, durableBackend(t, 2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.AdoptRingState(st.Floor, st.Seeds, st.Weights); err == nil {
		t.Error("adopting a 2-group floor over a 3-group configuration succeeded")
	}

	// A torn floor file is an error, never a silent fresh start.
	if err := os.WriteFile(path, []byte(`{"floor":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRingState(path); err == nil {
		t.Error("corrupt ring state loaded without error")
	}
	if err := os.WriteFile(path, []byte(`{"floor":0,"seeds":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRingState(path); err == nil {
		t.Error("incomplete ring state loaded without error")
	}
}

// TestReshardPurgeSurvivesRestart pins the journaled purge record: after
// a grow migration, the donors' moved accounts are gone and stay gone
// across a WAL-replay restart (no final snapshot), while the fence keeps
// refusing stray writes at the same watermark — the purge drops data,
// never the fence.
func TestReshardPurgeSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "d0"), filepath.Join(root, "d1")}
	stores := make([]*platform.LocalStore, 2)
	durs := make([]*platform.Durability, 2)
	backends := make([]platform.Store, 2)
	for i := range dirs {
		stores[i], durs[i] = durableBackendAt(t, dirs[i], 2)
		backends[i] = stores[i]
	}
	ctx := context.Background()
	s, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const pre = 60
	oldOwner := make(map[string]int, pre)
	for i := 0; i < pre; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if err := s.Submit(ctx, acct, i%2, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
		oldOwner[acct] = s.Shard(acct)
	}
	joiner := durableBackend(t, 2)
	m, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{joiner}}, migOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatal(err)
	}

	// Find one moved account per donor and remember each donor's
	// post-purge holdings.
	movedOf := make([]string, 2)
	keptOf := make([]int, 2)
	for gi := range stores {
		ds, err := stores[gi].Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		keptOf[gi] = len(ds.Accounts)
		for _, a := range ds.Accounts {
			if s.Shard(a.ID) != gi {
				t.Errorf("donor %d still holds moved account %s after purge", gi, a.ID)
			}
		}
	}
	for i := 0; i < pre; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if s.Shard(acct) != 2 {
			continue
		}
		// Moved to the joiner: its old owner fenced (then purged) it and
		// must refuse a stray direct write.
		gi := oldOwner[acct]
		if err := stores[gi].Submit(ctx, acct, 0, 1, at(1)); !errors.Is(err, platform.ErrWrongShard) {
			t.Errorf("donor %d accepts purged account %s (err=%v), want ErrWrongShard", gi, acct, err)
		}
		if movedOf[gi] == "" {
			movedOf[gi] = acct
		}
	}

	// Crash-restart both donors WITHOUT a final snapshot: recovery must
	// replay the journaled purge record and reconstruct the purged state.
	for gi := range stores {
		if err := durs[gi].Abort(); err != nil {
			t.Fatal(err)
		}
		reopened, d2, _, err := platform.OpenDurable(dirs[gi], testTasks(2), platform.DurableOptions{})
		if err != nil {
			t.Fatalf("reopen donor %d: %v", gi, err)
		}
		t.Cleanup(func() { _ = d2.Close() })
		ds, err := reopened.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Accounts) != keptOf[gi] {
			t.Errorf("reopened donor %d holds %d accounts, want %d (purge lost across restart)", gi, len(ds.Accounts), keptOf[gi])
		}
		for _, a := range ds.Accounts {
			if s.Shard(a.ID) != gi {
				t.Errorf("reopened donor %d resurrected moved account %s", gi, a.ID)
			}
		}
		if movedOf[gi] != "" {
			if err := reopened.Submit(ctx, movedOf[gi], 0, 1, at(1)); !errors.Is(err, platform.ErrWrongShard) {
				t.Errorf("reopened donor %d accepts fenced account %s (err=%v), want ErrWrongShard", gi, movedOf[gi], err)
			}
		}
	}
}
