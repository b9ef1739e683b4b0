package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sybiltd/internal/obs"
)

// replNode is one replica for tests: a durable store, its replication
// manager, and an httptest server speaking the full /v1 wire API.
type replNode struct {
	t      *testing.T
	dir    string
	store  *LocalStore
	d      *Durability
	repl   *Replication
	reg    *obs.Registry
	srv    *httptest.Server
	client *Client
}

// startReplNode boots a replica over dir. ropts.FollowerOf decides the
// starting role. The node serves on a fresh httptest listener.
func startReplNode(t *testing.T, dir string, ropts ReplicationOptions) *replNode {
	t.Helper()
	return startReplNodeWith(t, dir, DurableOptions{}, ropts)
}

// startReplNodeWith is startReplNode with the node's durability options.
func startReplNodeWith(t *testing.T, dir string, dopts DurableOptions, ropts ReplicationOptions) *replNode {
	t.Helper()
	store, d, _, err := OpenDurable(dir, testTasks(3), dopts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if ropts.Registry == nil {
		ropts.Registry = reg
	}
	repl := NewReplication(store, d, ropts)
	srv := httptest.NewServer(NewServerWithOptions(store, ServerOptions{
		Registry:     reg,
		Replication:  repl,
		DisableWatch: ropts.FollowerOf != "",
	}))
	n := &replNode{
		t: t, dir: dir, store: store, d: d, repl: repl, reg: reg, srv: srv,
		client: NewClient(srv.URL, WithRetries(0)),
	}
	t.Cleanup(n.stop)
	return n
}

// stop shuts the node down cleanly (server, shippers, durability).
// Idempotent so tests can kill a node mid-test and let Cleanup re-run it.
func (n *replNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
	n.repl.Close()
	_ = n.d.Close()
}

// kill simulates a crash: the HTTP server goes away but no final
// snapshot is written (the WAL keeps everything acknowledged).
func (n *replNode) kill() {
	if n.srv != nil {
		n.srv.CloseClientConnections()
		n.srv.Close()
		n.srv = nil
	}
	n.repl.Close()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gauge reads one gauge from a registry snapshot, 0 when absent.
func gauge(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Gauges[name]
}

func counterVal(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// listenTCP rebinds a specific address a previous test server held.
func listenTCP(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// TestReplicationShipsAndFollowerConverges drives an async primary→
// follower pair: every acked write reaches the follower, the follower's
// dataset is byte-equivalent, and both lag gauges drop to zero.
func TestReplicationShipsAndFollowerConverges(t *testing.T) {
	follower := startReplNode(t, t.TempDir(), ReplicationOptions{
		FollowerOf:   "http://primary.invalid",
		ShipInterval: 10 * time.Millisecond,
	})
	primary := startReplNode(t, t.TempDir(), ReplicationOptions{
		Followers:    []string{follower.srv.URL},
		ShipInterval: 10 * time.Millisecond,
	})

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		acct := fmt.Sprintf("acct-%02d", i)
		if err := primary.client.Submit(ctx, SubmissionRequest{Account: acct, Task: i % 3, Value: float64(i), Time: at(i % 3)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := primary.client.RecordFeatureFingerprint(ctx, "acct-00", testFeatures(1)); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}

	primarySeq := primary.d.durableSeq()
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		st, err := follower.client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == primarySeq
	})

	// Follower state must equal primary state record for record.
	pds, err := primary.store.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := follower.store.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pds.Accounts) != len(fds.Accounts) {
		t.Fatalf("follower has %d accounts, primary %d", len(fds.Accounts), len(pds.Accounts))
	}
	for i := range pds.Accounts {
		p, f := pds.Accounts[i], fds.Accounts[i]
		if p.ID != f.ID || len(p.Observations) != len(f.Observations) || len(p.Fingerprint) != len(f.Fingerprint) {
			t.Fatalf("account %d diverged: primary %s/%d obs, follower %s/%d",
				i, p.ID, len(p.Observations), f.ID, len(f.Observations))
		}
	}

	// Lag is observable on both sides and settles to zero.
	waitFor(t, 2*time.Second, "primary lag gauge to drop", func() bool {
		return gauge(primary.reg, "repl.lag_records") == 0 &&
			gauge(primary.reg, "repl.lag_records.follower0") == 0
	})
	waitFor(t, 2*time.Second, "follower lag gauge to drop", func() bool {
		return gauge(follower.reg, "repl.lag_records") == 0
	})
	if counterVal(primary.reg, "repl.shipped_frames") == 0 {
		t.Error("primary shipped_frames counter never moved")
	}
	if counterVal(follower.reg, "repl.applied_frames") == 0 {
		t.Error("follower applied_frames counter never moved")
	}

	// The lag gauge also reaches the Prometheus endpoint (dots
	// sanitized), satisfying "observable via both metrics endpoints".
	resp, err := http.Get(primary.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "repl_lag_records") {
		t.Error("/metrics does not expose repl_lag_records")
	}
}

// TestFollowerRejectsClientWrites: a follower answers client mutations
// with the typed 503 not_primary wire shape, and serves reads.
func TestFollowerRejectsClientWrites(t *testing.T) {
	follower := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "http://primary.invalid"})
	ctx := context.Background()

	err := follower.client.Submit(ctx, SubmissionRequest{Account: "acct", Task: 0, Value: 1, Time: at(0)})
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower submit error = %v, want ErrNotPrimary", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotPrimary || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("wire shape = %+v, want code %q status 503", ae, CodeNotPrimary)
	}
	res, err := follower.client.SubmitBatch(ctx, []SubmissionRequest{{Account: "a", Task: 0, Value: 1, Time: at(0)}})
	if err != nil {
		t.Fatalf("batch envelope: %v", err)
	}
	if len(res) != 1 || res[0].Code != CodeNotPrimary {
		t.Fatalf("follower batch results = %+v, want code %q", res, CodeNotPrimary)
	}
	// Reads still answer (default: any staleness).
	if _, err := follower.client.Stats(ctx); err != nil {
		t.Fatalf("follower read: %v", err)
	}
}

// TestApplyShipIdempotencyGapAndCRC exercises the follower-side apply
// contract directly: replays are no-ops, gaps apply nothing and answer
// the follower's cursor, corrupt payloads are refused.
func TestApplyShipIdempotencyGapAndCRC(t *testing.T) {
	ctx := context.Background()
	pStore, pd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	pr := NewReplication(pStore, pd, ReplicationOptions{Registry: obs.NewRegistry()})
	defer pr.Close()
	for i := 0; i < 3; i++ {
		if err := pStore.Submit(ctx, fmt.Sprintf("a%d", i), 0, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	frames, needSnap, err := pd.framesSince(0, 100)
	if err != nil || needSnap || len(frames) != 3 {
		t.Fatalf("framesSince = %d frames, needSnap=%v, err=%v; want 3 clean", len(frames), needSnap, err)
	}

	fStore, fd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	fr := NewReplication(fStore, fd, ReplicationOptions{FollowerOf: "x", Registry: obs.NewRegistry()})
	defer fr.Close()

	ship := func(req ReplShipRequest) ReplShipResponse {
		t.Helper()
		resp, err := fr.ApplyShip(ctx, req)
		if err != nil {
			t.Fatalf("ApplyShip: %v", err)
		}
		return resp
	}

	// First ship applies everything.
	resp := ship(ReplShipRequest{Epoch: 0, PrimarySeq: 3, Frames: frames})
	if resp.AppliedSeq != 3 || !resp.Durable {
		t.Fatalf("first ship: %+v, want applied 3 durable", resp)
	}
	// Exact replay: idempotent, cursor unchanged, nothing re-applied.
	applied := counterVal(fr.reg, "repl.applied_frames")
	resp = ship(ReplShipRequest{Epoch: 0, PrimarySeq: 3, Frames: frames})
	if resp.AppliedSeq != 3 {
		t.Fatalf("replay: %+v, want applied 3", resp)
	}
	if counterVal(fr.reg, "repl.applied_frames") != applied {
		t.Error("replay re-applied frames")
	}
	st, _ := fStore.Stats(ctx)
	if st.Accounts != 3 {
		t.Fatalf("follower has %d accounts after replay, want 3", st.Accounts)
	}

	// A gap (frames starting past the cursor) applies nothing and
	// reports the cursor so the primary can reship the range.
	if err := pStore.Submit(ctx, "a3", 0, 3, at(0)); err != nil {
		t.Fatal(err)
	}
	if err := pStore.Submit(ctx, "a4", 0, 4, at(0)); err != nil {
		t.Fatal(err)
	}
	tail, _, err := pd.framesSince(4, 100) // skips seq 4: frames begin at 5
	if err != nil || len(tail) != 1 {
		t.Fatalf("tail frames: %d, err=%v", len(tail), err)
	}
	resp = ship(ReplShipRequest{Epoch: 0, PrimarySeq: 5, Frames: tail})
	if resp.AppliedSeq != 3 {
		t.Fatalf("gapped ship advanced cursor to %d, want it held at 3", resp.AppliedSeq)
	}

	// Corrupt payload: CRC mismatch is refused before any apply.
	missing, _, err := pd.framesSince(3, 100)
	if err != nil || len(missing) != 2 {
		t.Fatalf("missing frames: %d, err=%v", len(missing), err)
	}
	bad := make([]ReplFrame, len(missing))
	copy(bad, missing)
	badPayload := append([]byte(nil), bad[0].Payload...)
	badPayload[0] ^= 0xff
	bad[0].Payload = badPayload
	if _, err := fr.ApplyShip(ctx, ReplShipRequest{Epoch: 0, PrimarySeq: 5, Frames: bad}); err == nil {
		t.Fatal("corrupt frame accepted")
	}

	// The intact range lands.
	resp = ship(ReplShipRequest{Epoch: 0, PrimarySeq: 5, Frames: missing})
	if resp.AppliedSeq != 5 {
		t.Fatalf("catch-up ship: %+v, want applied 5", resp)
	}
}

// TestApplyShipEpochRules: stale-epoch ships are refused as not_primary;
// higher-epoch frame ships demand a snapshot; an equal-epoch split brain
// (two primaries) is refused.
func TestApplyShipEpochRules(t *testing.T) {
	ctx := context.Background()
	node := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x"})

	// Adopt epoch 2 via snapshot ship.
	pStore, pd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	pr := NewReplication(pStore, pd, ReplicationOptions{Registry: obs.NewRegistry()})
	defer pr.Close()
	if err := pStore.Submit(ctx, "a0", 0, 1, at(0)); err != nil {
		t.Fatal(err)
	}
	shipSnap, err := pr.snapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	snap, snapSeq := shipSnap.Snapshot, shipSnap.SnapshotSeq
	resp, err := node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 2, PrimarySeq: snapSeq, Snapshot: snap, SnapshotSeq: snapSeq})
	if err != nil || resp.Epoch != 2 || resp.AppliedSeq != snapSeq {
		t.Fatalf("snapshot ship: %+v, %v; want epoch 2 applied %d", resp, err, snapSeq)
	}

	// Stale epoch (1 < 2): refused, typed not_primary.
	if _, err := node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 9}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("stale-epoch ship error = %v, want ErrNotPrimary", err)
	}

	// Higher epoch with frames only: follower must demand a snapshot.
	resp, err = node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 3, PrimarySeq: 9, Frames: []ReplFrame{{Seq: snapSeq + 1}}})
	if err != nil || !resp.NeedSnapshot {
		t.Fatalf("higher-epoch frames: %+v, %v; want NeedSnapshot", resp, err)
	}

	// Split brain: a primary refuses an equal-epoch ship from a peer.
	if err := node.repl.SetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 5, PrimarySeq: 1}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("equal-epoch ship to a primary = %v, want ErrNotPrimary", err)
	}
}

// TestApplyShipRevalidatesUnderLock pins the inner halves of ApplyShip:
// applyFrames and resetFromSnapshot re-check epoch and role inside the
// store critical section, so a promotion landing between ApplyShip's gate
// and the apply (SetRole persists a higher epoch, then flips the role)
// cannot be followed by stale-lineage frames interleaving at contiguous
// seqs or a stale snapshot rewinding the promoted node's state. Calling
// the inner methods directly simulates the gate having passed just before
// the promotion.
func TestApplyShipRevalidatesUnderLock(t *testing.T) {
	ctx := context.Background()
	pStore, pd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	pr := NewReplication(pStore, pd, ReplicationOptions{Registry: obs.NewRegistry()})
	defer pr.Close()
	for i := 0; i < 3; i++ {
		if err := pStore.Submit(ctx, fmt.Sprintf("a%d", i), 0, float64(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := pd.framesSince(0, 100)
	if err != nil || len(frames) != 3 {
		t.Fatalf("framesSince: %d frames, err=%v", len(frames), err)
	}
	shipSnap, err := pr.snapshotForShip()
	if err != nil || shipSnap.Epoch != 0 {
		t.Fatalf("snapshotForShip: epoch=%d, err=%v", shipSnap.Epoch, err)
	}
	snap, snapSeq := shipSnap.Snapshot, shipSnap.SnapshotSeq

	node := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x"})
	// Normal ship at epoch 0 lands the first two frames.
	if _, err := node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 0, PrimarySeq: 2, Frames: frames[:2]}); err != nil {
		t.Fatal(err)
	}
	// The promotion that races the gate: epoch 2, role primary.
	if err := node.repl.SetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 2}); err != nil {
		t.Fatal(err)
	}

	// Frames validated against the pre-promotion epoch must be refused by
	// the locked re-check, leaving seq and epoch untouched.
	if err := node.repl.applyFrames(frames[2:], 0); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("stale-epoch applyFrames = %v, want ErrNotPrimary", err)
	}
	if seq, epoch := node.d.durableSeq(), node.d.Epoch(); seq != 2 || epoch != 2 {
		t.Fatalf("after refused frames: seq=%d epoch=%d, want 2/2 untouched", seq, epoch)
	}

	// A stale snapshot reset (epoch 0 < ours) must not rewind state.
	err = node.repl.resetFromSnapshot(ReplShipRequest{Epoch: 0, PrimarySeq: snapSeq, Snapshot: snap, SnapshotSeq: snapSeq})
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("stale snapshot reset = %v, want ErrNotPrimary", err)
	}
	// An equal-epoch snapshot against a primary is a split brain, refused.
	err = node.repl.resetFromSnapshot(ReplShipRequest{Epoch: 2, PrimarySeq: snapSeq, Snapshot: snap, SnapshotSeq: snapSeq})
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("equal-epoch snapshot to a primary = %v, want ErrNotPrimary", err)
	}
	if seq, epoch := node.d.durableSeq(), node.d.Epoch(); seq != 2 || epoch != 2 {
		t.Fatalf("after refused resets: seq=%d epoch=%d, want 2/2 untouched", seq, epoch)
	}
	if node.repl.Role() != RolePrimary {
		t.Fatalf("role = %q after refused stale ships, want primary kept", node.repl.Role())
	}

	// A genuinely newer snapshot (epoch 3) against a primary that missed
	// its demotion is adopted — and the node steps down in the same
	// critical section.
	err = node.repl.resetFromSnapshot(ReplShipRequest{Epoch: 3, PrimarySeq: snapSeq, Snapshot: snap, SnapshotSeq: snapSeq})
	if err != nil {
		t.Fatalf("newer snapshot reset: %v", err)
	}
	if node.repl.Role() != RoleFollower || node.d.Epoch() != 3 {
		t.Fatalf("after newer snapshot: role=%q epoch=%d, want follower at 3", node.repl.Role(), node.d.Epoch())
	}
}

// TestFollowerCatchUpFromWALTail: a follower that missed ships while down
// rejoins at the same epoch and catches up from the primary's WAL by
// sequence range — frames, not a snapshot reset.
func TestFollowerCatchUpFromWALTail(t *testing.T) {
	ctx := context.Background()
	fDir := t.TempDir()
	follower := startReplNode(t, fDir, ReplicationOptions{FollowerOf: "x", ShipInterval: 10 * time.Millisecond})
	primary := startReplNode(t, t.TempDir(), ReplicationOptions{
		Followers:    []string{follower.srv.URL},
		ShipInterval: 10 * time.Millisecond,
	})

	if err := primary.client.Submit(ctx, SubmissionRequest{Account: "a0", Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial replication", func() bool {
		st, err := follower.client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == primary.d.durableSeq()
	})

	// Follower goes down; primary keeps writing.
	addr := follower.srv.Listener.Addr().String()
	follower.stop()
	for i := 1; i <= 5; i++ {
		if err := primary.client.Submit(ctx, SubmissionRequest{Account: fmt.Sprintf("a%d", i), Task: 0, Value: float64(i), Time: at(0)}); err != nil {
			t.Fatal(err)
		}
	}

	// Follower restarts on the same address with the same data dir.
	restarted := restartReplNodeAt(t, fDir, addr, ReplicationOptions{FollowerOf: "x", ShipInterval: 10 * time.Millisecond})
	waitFor(t, 5*time.Second, "catch-up after restart", func() bool {
		st, err := restarted.client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == primary.d.durableSeq()
	})
	st, _ := restarted.store.Stats(ctx)
	if st.Accounts != 6 {
		t.Fatalf("follower has %d accounts after catch-up, want 6", st.Accounts)
	}
	// Same epoch, cursor behind → the WAL-tail path, no snapshot reset.
	if n := counterVal(restarted.reg, "repl.snapshot_resets"); n != 0 {
		t.Errorf("catch-up used %d snapshot resets, want 0 (frames path)", n)
	}
	waitFor(t, 2*time.Second, "follower lag to zero", func() bool {
		st, err := restarted.client.ReplStatus(ctx)
		return err == nil && st.Lag == 0
	})
}

// restartReplNodeAt reopens a replica's data dir and serves it on a
// specific listen address (a previous incarnation's), so primaries keep
// shipping to the configured endpoint.
func restartReplNodeAt(t *testing.T, dir, addr string, ropts ReplicationOptions) *replNode {
	t.Helper()
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if ropts.Registry == nil {
		ropts.Registry = reg
	}
	repl := NewReplication(store, d, ropts)
	srv := httptest.NewUnstartedServer(NewServerWithOptions(store, ServerOptions{
		Registry:     reg,
		Replication:  repl,
		DisableWatch: ropts.FollowerOf != "",
	}))
	l, err := listenTCP(addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	n := &replNode{
		t: t, dir: dir, store: store, d: d, repl: repl, reg: reg, srv: srv,
		client: NewClient(srv.URL, WithRetries(0)),
	}
	t.Cleanup(n.stop)
	return n
}

// TestSemiSyncNeverAcksWithoutFollowerDurability is the redundancy
// contract: in semisync mode a successful ack implies the record is
// durable on >= 2 replicas, and a write whose follower never confirms is
// NOT acked — so a primary killed before the follower ack has lost
// nothing the client was told was safe.
func TestSemiSyncNeverAcksWithoutFollowerDurability(t *testing.T) {
	ctx := context.Background()

	// No followers configured at all: semisync must refuse rather than
	// silently degrade to async.
	lone := startReplNode(t, t.TempDir(), ReplicationOptions{
		Mode:            AckSemiSync,
		SemiSyncTimeout: 100 * time.Millisecond,
	})
	if err := lone.client.Submit(ctx, SubmissionRequest{Account: "solo", Task: 0, Value: 1, Time: at(0)}); !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("semisync with no followers acked: %v, want ErrReplicaLag", err)
	}

	// With a live follower every ack implies follower durability.
	follower := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x", ShipInterval: 5 * time.Millisecond})
	primary := startReplNode(t, t.TempDir(), ReplicationOptions{
		Mode:            AckSemiSync,
		Followers:       []string{follower.srv.URL},
		ShipInterval:    5 * time.Millisecond,
		SemiSyncTimeout: 2 * time.Second,
	})
	for i := 0; i < 5; i++ {
		if err := primary.client.Submit(ctx, SubmissionRequest{Account: fmt.Sprintf("s%d", i), Task: 0, Value: float64(i), Time: at(0)}); err != nil {
			t.Fatalf("semisync submit %d: %v", i, err)
		}
		// The ack just returned: the follower must already hold the record.
		st, err := follower.client.ReplStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.DurableSeq < primary.d.durableSeq() {
			t.Fatalf("acked write %d not durable on follower: follower seq %d < primary %d",
				i, st.DurableSeq, primary.d.durableSeq())
		}
	}

	// Kill the follower (the primary "dies before the follower ack" from
	// the client's perspective): subsequent writes must NOT be acked.
	follower.kill()
	err := primary.client.Submit(ctx, SubmissionRequest{Account: "after-kill", Task: 0, Value: 9, Time: at(0)})
	if !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("submit with dead follower acked: %v, want ErrReplicaLag", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeReplicaLag {
		t.Fatalf("wire code = %+v, want %q", ae, CodeReplicaLag)
	}
	if counterVal(primary.reg, "repl.semisync_timeouts") == 0 {
		t.Error("semisync timeout not counted")
	}
}

// TestPromotionCatchUpAndOldPrimaryRejoin is the full failover arc at the
// protocol level: primary dies, the follower is promoted with a higher
// epoch and accepts writes, and the restarted old primary — demoted to
// follower — converges to the new primary's state via snapshot reset.
func TestPromotionCatchUpAndOldPrimaryRejoin(t *testing.T) {
	ctx := context.Background()
	aDir, bDir := t.TempDir(), t.TempDir()

	b := startReplNode(t, bDir, ReplicationOptions{FollowerOf: "x", ShipInterval: 10 * time.Millisecond})
	a := startReplNode(t, aDir, ReplicationOptions{
		Followers:    []string{b.srv.URL},
		ShipInterval: 10 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		if err := a.client.Submit(ctx, SubmissionRequest{Account: fmt.Sprintf("pre-%d", i), Task: 0, Value: float64(i), Time: at(0)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "b catches up", func() bool {
		st, err := b.client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == a.d.durableSeq()
	})

	// A dies; B is promoted at a strictly higher epoch.
	aAddr := a.srv.Listener.Addr().String()
	a.kill()
	st, err := b.client.ReplSetRole(ctx, ReplRoleRequest{
		Role:      RolePrimary,
		Epoch:     1,
		Followers: []string{"http://" + aAddr},
	})
	if err != nil || st.Role != RolePrimary || st.Epoch != 1 {
		t.Fatalf("promotion: %+v, %v", st, err)
	}
	// Promotion is epoch-guarded: re-promoting at the same epoch fails.
	if _, err := b.client.ReplSetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 1}); err == nil {
		t.Fatal("re-promotion at a non-increasing epoch accepted")
	}

	// Writes now land on B.
	for i := 0; i < 2; i++ {
		if err := b.client.Submit(ctx, SubmissionRequest{Account: fmt.Sprintf("post-%d", i), Task: 0, Value: float64(i), Time: at(0)}); err != nil {
			t.Fatalf("write to promoted primary: %v", err)
		}
	}

	// Old primary rejoins on its old address as a follower; B's shipper
	// reaches it, the epoch handshake forces a snapshot reset, and it
	// converges.
	a2 := restartReplNodeAt(t, aDir, aAddr, ReplicationOptions{FollowerOf: b.srv.URL, ShipInterval: 10 * time.Millisecond})
	waitFor(t, 5*time.Second, "old primary converges", func() bool {
		st, err := a2.client.ReplStatus(ctx)
		return err == nil && st.Role == RoleFollower && st.Epoch == 1 && st.DurableSeq == b.d.durableSeq()
	})
	stats, _ := a2.store.Stats(ctx)
	if stats.Accounts != 5 {
		t.Fatalf("rejoined old primary has %d accounts, want 5", stats.Accounts)
	}
	// Its own lag gauge settles at zero.
	waitFor(t, 2*time.Second, "rejoined lag to zero", func() bool {
		st, err := a2.client.ReplStatus(ctx)
		return err == nil && st.Lag == 0
	})
}

// TestReplEndpointsUnimplementedWithoutReplication: the repl routes on an
// unreplicated node answer the typed 501 wire shape.
func TestReplEndpointsUnimplementedWithoutReplication(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocalStore(testTasks(1)), nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithRetries(0))
	_, err := c.ReplStatus(context.Background())
	if !errors.Is(err, ErrUnimplemented) {
		t.Fatalf("repl status on plain node = %v, want ErrUnimplemented", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeUnimplemented || ae.Status != http.StatusNotImplemented {
		t.Fatalf("wire shape = %+v, want code %q status 501", ae, CodeUnimplemented)
	}
}
