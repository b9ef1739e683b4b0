package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// TestRingMovedDeltaMinimalOnGrow is the reshard-delta property test:
// growing a ring from n to n+1 shards moves exactly the keys whose owner
// changed, every moved key lands on the new shard, and the moved fraction
// is ~1/(n+1) — the minimal delta consistent hashing promises. The
// migration coordinator's moved-account filter and the donor fence lists
// are both built on the "moved keys land on the joiner" half.
func TestRingMovedDeltaMinimalOnGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8} {
		oldRing := NewRing(n, 32)
		newRing := NewRing(n+1, 32)
		const keys = 4000
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("acct-%d-%d", rng.Int63(), i)
			m := Moved(oldRing, newRing, key)
			if m != (oldRing.Shard(key) != newRing.Shard(key)) {
				t.Fatalf("n=%d: Moved(%q)=%v disagrees with owner comparison", n, key, m)
			}
			if !m {
				continue
			}
			moved++
			if got := newRing.Shard(key); got != n {
				t.Fatalf("n=%d: moved key %q landed on shard %d, want the new shard %d", n, key, got, n)
			}
		}
		frac := float64(moved) / keys
		want := 1.0 / float64(n+1)
		if frac < want/2 || frac > want*2 {
			t.Errorf("n=%d: moved fraction %.3f, want about %.3f (minimal delta)", n, frac, want)
		}
	}
}

// TestReshardStaleRingVersionFencedOverHTTP pins the stale-router fence on
// the wire: once a shard is fenced at ring version 3, any mutation stamped
// with an older X-Ring-Version is refused wholesale with the typed
// wrong_shard code carrying the fence version, a current-version stamp
// passes for unmoved accounts, and the per-account fence still refuses the
// moved account itself.
func TestReshardStaleRingVersionFencedOverHTTP(t *testing.T) {
	store := platform.NewLocalStore(testTasks(2))
	api := platform.NewServer(store, nil)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)
	ctx := context.Background()
	if err := store.Fence(ctx, 3, []string{"moved-acct"}); err != nil {
		t.Fatal(err)
	}

	stale := platform.NewClient(srv.URL, platform.WithRetries(3))
	stale.SetRingVersion(2)
	err := stale.Submit(ctx, platform.SubmissionRequest{Account: "fresh-acct", Task: 0, Value: 1, Time: at(0)})
	if !errors.Is(err, platform.ErrWrongShard) {
		t.Fatalf("stale-stamped submit = %v, want ErrWrongShard", err)
	}
	var ws *platform.WrongShardError
	if !errors.As(err, &ws) || ws.RingVersion != 3 {
		t.Errorf("refusal carries ring version %+v, want 3 (how far behind the router is)", ws)
	}
	if _, err := stale.SubmitBatch(ctx, []platform.SubmissionRequest{
		{Account: "fresh-acct", Task: 0, Value: 1, Time: at(0)},
	}); !errors.Is(err, platform.ErrWrongShard) {
		t.Errorf("stale-stamped batch = %v, want wholesale ErrWrongShard", err)
	}
	if err := stale.RecordFeatureFingerprint(ctx, "fresh-acct", testFeatures(1)); !errors.Is(err, platform.ErrWrongShard) {
		t.Errorf("stale-stamped fingerprint = %v, want ErrWrongShard", err)
	}

	cur := platform.NewClient(srv.URL, platform.WithRetries(0))
	cur.SetRingVersion(3)
	if err := cur.Submit(ctx, platform.SubmissionRequest{Account: "fresh-acct", Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatalf("current-stamped submit to an unmoved account: %v", err)
	}
	err = cur.Submit(ctx, platform.SubmissionRequest{Account: "moved-acct", Task: 0, Value: 1, Time: at(0)})
	if !errors.Is(err, platform.ErrWrongShard) {
		t.Errorf("submit naming the fenced account = %v, want ErrWrongShard", err)
	}
}

// TestReshardWrongShardClientNoRetryNoBreakerBurn pins the client-side
// contract the cutover depends on: a wrong_shard refusal is semantic, not
// a fault — the client must not spend retry budget on it (a retry against
// a fenced shard can never succeed) and must not count it against the
// circuit breaker (a healthy shard answering wrong_shard would otherwise
// trip the breaker and blackhole the re-routed traffic too). Every refusal
// therefore reaches the wire exactly once.
func TestReshardWrongShardClientNoRetryNoBreakerBurn(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"code":"wrong_shard","error":"account moved off this shard","ring_version":7}`)
	}))
	t.Cleanup(srv.Close)

	client := platform.NewClient(srv.URL, platform.WithRetries(3), platform.WithBackoff(time.Millisecond, 0))
	ctx := context.Background()
	const calls = 20
	for i := 0; i < calls; i++ {
		err := client.Submit(ctx, platform.SubmissionRequest{Account: fmt.Sprintf("a-%d", i), Task: 0, Value: 1, Time: at(0)})
		if !errors.Is(err, platform.ErrWrongShard) {
			t.Fatalf("call %d: %v, want ErrWrongShard", i, err)
		}
		var ws *platform.WrongShardError
		if !errors.As(err, &ws) || ws.RingVersion != 7 {
			t.Fatalf("call %d: ring version not carried through: %v", i, err)
		}
	}
	// One wire hit per call: no retry burn. And all `calls` consecutive
	// refusals never opened the breaker — every later call still reached
	// the server instead of failing fast locally.
	if n := hits.Load(); n != calls {
		t.Errorf("%d wire hits for %d wrong_shard calls, want exactly %d (no retries, breaker never opened)", n, calls, calls)
	}
}

// durableBackend opens one WAL-journaled LocalStore (so it can export its
// WAL and journal fences — the donor capabilities a reshard needs).
func durableBackend(t testing.TB, tasks int) *platform.LocalStore {
	t.Helper()
	store, d, _, err := platform.OpenDurable(t.TempDir(), testTasks(tasks), platform.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return store
}

// newDurableFleet builds a sharded store over durable LocalStore backends.
func newDurableFleet(t testing.TB, shards, tasks int) (*Store, []*platform.LocalStore) {
	t.Helper()
	backends := make([]platform.Store, shards)
	locals := make([]*platform.LocalStore, shards)
	for i := range backends {
		locals[i] = durableBackend(t, tasks)
		backends[i] = locals[i]
	}
	s, err := New(context.Background(), backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, locals
}

// migOpts returns fast migration options journaling into a temp dir.
func migOpts(t testing.TB) MigrationOptions {
	t.Helper()
	return MigrationOptions{
		JournalPath:  filepath.Join(t.TempDir(), "reshard.json"),
		PollInterval: 2 * time.Millisecond,
	}
}

// TestReshardWriteRacedAgainstCutoverNeverFails is the re-route regression
// test: a 2-shard fleet grows to 3 while writers hammer it, and no write
// may ever surface an error — a write racing the cutover gets wrong_shard
// from a freshly fenced donor and must be transparently re-routed through
// the newer topology (routeWrite / SubmitBatch), never bubbled up as a
// 5xx. It also checks the observability satellites: the reshard.* gauges
// and the ring version on /readyz.
func TestReshardWriteRacedAgainstCutoverNeverFails(t *testing.T) {
	s, _ := newDurableFleet(t, 2, 2)
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if err := s.Submit(ctx, acct, 0, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := s.RecordFingerprintFeatures(ctx, acct, testFeatures(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wrote atomic.Int64
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
				account := fmt.Sprintf("live-%d-%d", w, i)
				if err := s.Submit(ctx, account, i%2, 1.5, at(1)); err != nil {
					t.Errorf("write during reshard surfaced an error: %v", err)
					return
				}
				wrote.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	joiner := durableBackend(t, 2)
	opts := migOpts(t)
	reg := obs.NewRegistry()
	opts.Registry = reg
	m, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{joiner}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{joiner}}, opts); err == nil {
		t.Error("second StartMigration while one is in flight succeeded")
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("migration: %v", err)
	}
	close(stop)
	wg.Wait()

	if v := s.RingVersion(); v != 2 {
		t.Errorf("ring version after reshard = %d, want 2", v)
	}
	if n := s.Shards(); n != 3 {
		t.Errorf("shards after reshard = %d, want 3", n)
	}
	if m.Journal().Phase != MigrationDone {
		t.Errorf("journal phase = %q, want done", m.Journal().Phase)
	}

	// Observability satellites: the reshard gauges describe the finished
	// migration, and /readyz carries the ring version.
	g := reg.Snapshot().Gauges
	if g["reshard.state"] != 5 {
		t.Errorf("reshard.state = %d, want 5 (done)", g["reshard.state"])
	}
	if g["reshard.keys_moved"] < 1 {
		t.Errorf("reshard.keys_moved = %d, want > 0", g["reshard.keys_moved"])
	}
	if g["reshard.bytes_shipped"] < 1 {
		t.Errorf("reshard.bytes_shipped = %d, want > 0", g["reshard.bytes_shipped"])
	}
	if g["reshard.catchup_lag_records"] != 0 {
		t.Errorf("reshard.catchup_lag_records = %d after drain, want 0", g["reshard.catchup_lag_records"])
	}
	if _, ok := g["reshard.duration_seconds"]; !ok {
		t.Error("reshard.duration_seconds gauge never set")
	}
	api := platform.NewServer(s, nil)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)
	rz, err := platform.NewClient(srv.URL, platform.WithRetries(0)).Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rz.RingVersion != 2 || rz.Migrating {
		t.Errorf("readyz ring_version=%d migrating=%v, want 2/false", rz.RingVersion, rz.Migrating)
	}

	// Every write landed exactly once, fingerprints moved with their
	// accounts, and aggregation over the grown fleet is bit-identical to a
	// single-node run on the merged dataset.
	ds, err := s.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 60 + int(wrote.Load())
	if got := ds.NumAccounts(); got != total {
		t.Fatalf("merged dataset holds %d accounts, want %d", got, total)
	}
	seen := make(map[string]bool, total)
	for _, a := range ds.Accounts {
		if seen[a.ID] {
			t.Errorf("account %s appears twice in the merged dataset (donor copy not excised)", a.ID)
		}
		seen[a.ID] = true
		if len(a.Observations) != 1 {
			t.Errorf("account %s has %d observations, want 1 (double-applied by the handoff?)", a.ID, len(a.Observations))
		}
	}
	for i := 0; i < 60; i += 5 {
		acct := fmt.Sprintf("pre-%d", i)
		found := false
		for _, a := range ds.Accounts {
			if a.ID == acct {
				found = len(a.Fingerprint) > 0
			}
		}
		if !found {
			t.Errorf("account %s lost its fingerprint across the reshard", acct)
		}
	}
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

// TestReshardAbortsCleanlyWhenJoinerDiesPreFlip: a joining group that is
// unreachable during seeding aborts the migration with no ring change —
// the fleet never learns the joiner existed, writes keep landing, and a
// fresh migration can be started afterwards.
func TestReshardAbortsCleanlyWhenJoinerDiesPreFlip(t *testing.T) {
	s, _ := newDurableFleet(t, 2, 2)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := s.Submit(ctx, fmt.Sprintf("pre-%d", i), 0, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	down := fmt.Errorf("%w: connection refused", platform.ErrShardUnavailable)
	joiner := &failingStore{Store: platform.NewLocalStore(testTasks(2)), err: down}
	m, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{joiner}}, migOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if !s.RingStatus().Migrating {
		t.Error("RingStatus does not flag the in-flight migration")
	}
	if err := m.Run(ctx); err == nil {
		t.Fatal("migration with a dead joiner reported success")
	}
	if m.Journal().Phase != MigrationAborted {
		t.Errorf("journal phase = %q, want aborted", m.Journal().Phase)
	}
	if s.RingVersion() != 1 || s.Shards() != 2 {
		t.Errorf("abort changed the ring: v%d over %d shards, want v1 over 2", s.RingVersion(), s.Shards())
	}
	if st := s.RingStatus(); st.Migrating {
		t.Error("migrating flag still raised after abort")
	}
	if err := s.Submit(ctx, "post-abort", 0, 1, at(1)); err != nil {
		t.Errorf("write after aborted migration: %v", err)
	}
	if _, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{durableBackend(t, 2)}}, migOpts(t)); err != nil {
		t.Errorf("fresh migration after an abort refused: %v", err)
	}
}

// TestReshardResumeFromSeedingJournal is the pre-flip router-restart path:
// the router dies right after journaling the migration start, a fresh
// router (new Store over the same fleet, ring still at v1) loads the
// journal and resumes — re-seeding from scratch, which the duplicate
// guard makes idempotent — and completes the handoff.
func TestReshardResumeFromSeedingJournal(t *testing.T) {
	backends := make([]platform.Store, 2)
	for i := range backends {
		backends[i] = durableBackend(t, 2)
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
	joiner := durableBackend(t, 2)
	gc := GroupConfig{Replicas: []platform.Store{joiner}}
	opts := migOpts(t)
	if _, err := s1.StartMigration(gc, opts); err != nil {
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
	if !j.Pending() || j.Flipped() {
		t.Fatalf("journal %+v, want pending pre-flip", j)
	}
	m2, err := s2.ResumeMigration(gc, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.RingVersion() != 1 {
		t.Errorf("pre-flip resume changed the ring to v%d before running", s2.RingVersion())
	}
	if err := m2.Run(ctx); err != nil {
		t.Fatalf("resumed migration: %v", err)
	}
	if s2.RingVersion() != 2 || s2.Shards() != 3 {
		t.Errorf("after resume: ring v%d over %d shards, want v2 over 3", s2.RingVersion(), s2.Shards())
	}
	assertReshardComplete(t, s2, joiner, 60, 1)
}

// TestReshardResumeCompletesAfterFlip is the post-flip router-restart
// path: the router dies immediately after publishing the grown topology
// (journal phase "flipped", donors not yet fenced). A fresh router MUST
// complete this migration — the fleet's only consistent topology is the
// grown one — so ResumeMigration re-installs it before any traffic routes
// by the stale ring, and Run picks up at the fence.
func TestReshardResumeCompletesAfterFlip(t *testing.T) {
	backends := make([]platform.Store, 2)
	for i := range backends {
		backends[i] = durableBackend(t, 2)
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
	joiner := durableBackend(t, 2)
	gc := GroupConfig{Replicas: []platform.Store{joiner}}
	opts := migOpts(t)
	m1, err := s1.StartMigration(gc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the coordinator to the exact crash point: seeded, caught up,
	// topology flipped and journaled — then the router dies before fencing.
	if err := m1.seedAndCatchup(ctx); err != nil {
		t.Fatal(err)
	}
	s1.installTopology(m1.cand)
	if err := m1.setPhase(MigrationFlipped); err != nil {
		t.Fatal(err)
	}

	s2, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok, err := LoadMigrationJournal(opts.JournalPath)
	if err != nil || !ok {
		t.Fatalf("load journal: ok=%v err=%v", ok, err)
	}
	if !j.Flipped() {
		t.Fatalf("journal phase %q, want flipped", j.Phase)
	}
	// A journal that does not match the store's ring lineage must be
	// refused, not trusted.
	if _, err := s2.ResumeMigration(gc, MigrationJournal{RingVersion: 9, Phase: MigrationFlipped, Cursors: make([]uint64, 2)}, opts); err == nil {
		t.Error("resume accepted a journal targeting the wrong ring version")
	}
	m2, err := s2.ResumeMigration(gc, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The grown topology must be live IMMEDIATELY — before Run — so no
	// write routes by the stale ring into a donor fence.
	if s2.RingVersion() != 2 || s2.Shards() != 3 {
		t.Fatalf("post-flip resume left the store at ring v%d over %d shards, want v2 over 3", s2.RingVersion(), s2.Shards())
	}
	if err := m2.Run(ctx); err != nil {
		t.Fatalf("resumed migration: %v", err)
	}
	if m2.Journal().Phase != MigrationDone {
		t.Errorf("journal phase = %q, want done", m2.Journal().Phase)
	}
	assertReshardComplete(t, s2, joiner, 60, 1)
}

// assertReshardComplete checks the post-migration invariants: the joiner
// holds every account the grown ring assigns it, writes naming moved
// accounts land on the joiner (the donors refuse them), and the merged
// dataset holds every account exactly once with obsPerAccount
// observations each.
func assertReshardComplete(t *testing.T, s *Store, joiner *platform.LocalStore, accounts, obsPerAccount int) {
	t.Helper()
	ctx := context.Background()
	jds, err := joiner.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	joinerHolds := make(map[string]bool, len(jds.Accounts))
	for _, a := range jds.Accounts {
		joinerHolds[a.ID] = true
	}
	movedTotal := 0
	for i := 0; i < accounts; i++ {
		acct := fmt.Sprintf("pre-%d", i)
		if s.Shard(acct) != s.Shards()-1 {
			continue
		}
		movedTotal++
		if !joinerHolds[acct] {
			t.Errorf("moved account %s missing from the joiner", acct)
		}
	}
	if movedTotal == 0 {
		t.Fatal("test fleet moved no accounts; the ring fixture is broken")
	}
	ds, err := s.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumAccounts(); got != accounts {
		t.Errorf("merged dataset holds %d accounts, want %d", got, accounts)
	}
	seen := make(map[string]bool, accounts)
	for _, a := range ds.Accounts {
		if seen[a.ID] {
			t.Errorf("account %s appears twice in the merged dataset", a.ID)
		}
		seen[a.ID] = true
		if len(a.Observations) != obsPerAccount {
			t.Errorf("account %s has %d observations, want %d", a.ID, len(a.Observations), obsPerAccount)
		}
	}
}
