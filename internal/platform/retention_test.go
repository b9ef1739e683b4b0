package platform

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/obs"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// heldClient is a ReplicationOptions.NewClient whose requests wait until
// release is closed, as if the follower were out of reach; held counts
// the requests waiting.
func heldClient(release <-chan struct{}, held *atomic.Int32) func(string) *Client {
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		held.Add(1)
		select {
		case <-release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return http.DefaultTransport.RoundTrip(req)
	})}
	return func(endpoint string) *Client { return NewClient(endpoint, WithRetries(0), WithHTTPClient(hc)) }
}

// retainedLocked returns the number of frames the node keeps in memory and
// the last sequence number. Caller holds the store mutex.
func (d *Durability) retainedLocked() (int, uint64) { return len(d.frames), d.seq }

// catchUpAfterHeldShips runs a semi-sync primary (a compaction every 8
// records) whose ships to its one follower are held back while it takes
// envelopes of 12 reports, each crossing one compaction, then releases
// them and waits until every envelope is acked and the follower holds the
// primary's history and dataset.
func catchUpAfterHeldShips(t *testing.T, envelopes int) (primary, follower *replNode) {
	t.Helper()
	ctx := context.Background()
	follower = startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x", ShipInterval: 5 * time.Millisecond})
	release := make(chan struct{})
	var held atomic.Int32
	primary = startReplNodeWith(t, t.TempDir(), DurableOptions{SnapshotEvery: 8}, ReplicationOptions{
		Mode:            AckSemiSync,
		Followers:       []string{follower.srv.URL},
		ShipInterval:    5 * time.Millisecond,
		SemiSyncTimeout: 30 * time.Second,
		NewClient:       heldClient(release, &held),
	})
	// The shipper's first request is a probe sent before any write, so it
	// learns the follower's cursor only once the ships are released.
	waitFor(t, 5*time.Second, "the first ship to be held", func() bool { return held.Load() > 0 })

	acked := make(chan error, envelopes)
	for e := 0; e < envelopes; e++ {
		go func(e int) {
			items := make([]BatchSubmission, 12)
			for i := range items {
				items[i] = BatchSubmission{Account: fmt.Sprintf("e%d-%02d", e, i), Task: i % 3, Value: float64(i), At: at(i)}
			}
			for _, err := range primary.store.SubmitBatch(ctx, items) {
				if err != nil {
					acked <- err
					return
				}
			}
			acked <- nil
		}(e)
		waitFor(t, 5*time.Second, "the envelope's compaction", func() bool {
			return primary.d.durableSeq() == uint64(12*(e+1)) && primary.d.WALSize() == 0
		})
	}
	close(release)
	for e := 0; e < envelopes; e++ {
		if err := <-acked; err != nil {
			t.Fatalf("semi-sync envelope: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		return follower.d.durableSeq() == primary.d.durableSeq()
	})
	if got, want := signature(t, follower.store), signature(t, primary.store); got != want {
		t.Fatal("follower dataset differs from the primary's")
	}
	return primary, follower
}

// TestSemiSyncFollowerOneCompactionBehindCatchesUpFromFrames: a follower
// whose ships were held back across one compaction catches up from the
// retained generation, with no snapshot ship.
func TestSemiSyncFollowerOneCompactionBehindCatchesUpFromFrames(t *testing.T) {
	primary, follower := catchUpAfterHeldShips(t, 1)
	if n := counterVal(primary.reg, "repl.snapshot_ships"); n != 0 {
		t.Errorf("repl.snapshot_ships = %d, want 0 (frames from the retained generation)", n)
	}
	if n := counterVal(follower.reg, "repl.snapshot_resets"); n != 0 {
		t.Errorf("follower snapshot resets = %d, want 0", n)
	}
	if n := counterVal(primary.reg, "repl.shipped_frames"); n != 12 {
		t.Errorf("repl.shipped_frames = %d, want 12", n)
	}
}

// TestFollowerTwoGenerationsBehindGetsSnapshot: a follower more than one
// generation behind gets a snapshot and converges.
func TestFollowerTwoGenerationsBehindGetsSnapshot(t *testing.T) {
	primary, follower := catchUpAfterHeldShips(t, 2)
	if n := counterVal(primary.reg, "repl.snapshot_ships"); n != 1 {
		t.Errorf("repl.snapshot_ships = %d, want 1", n)
	}
	if n := counterVal(follower.reg, "repl.snapshot_resets"); n != 1 {
		t.Errorf("follower snapshot resets = %d, want 1", n)
	}
}

// TestAdoptedSnapshotShipsNoAbandonedFrames: frames from before an adopted
// snapshot belong to a history the node abandoned. Neither the node nor,
// once promoted, its shippers and export tail ever serve them: a cursor
// behind the adopted seq gets a snapshot.
func TestAdoptedSnapshotShipsNoAbandonedFrames(t *testing.T) {
	ctx := context.Background()
	// The snapshot of another lineage: two reports, seq 2, epoch 1.
	other := NewLocalStore(testTasks(3))
	for i := 0; i < 2; i++ {
		if err := other.Submit(ctx, fmt.Sprintf("new-%d", i), 0, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := []byte(signature(t, other))

	store, d, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		if err := store.Submit(ctx, fmt.Sprintf("old-%d", i), 0, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	r := NewReplication(store, d, ReplicationOptions{FollowerOf: "x", ShipInterval: 5 * time.Millisecond, Registry: reg})
	defer r.Close()
	if _, err := r.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 2, Snapshot: snap, SnapshotSeq: 2}); err != nil {
		t.Fatal(err)
	}
	behind := func(when string, upTo uint64) {
		t.Helper()
		for from := uint64(0); from < upTo; from++ {
			if frames, need, err := d.framesSince(from, 100); err != nil || !need || len(frames) > 0 {
				t.Fatalf("%s: framesSince(%d) = %d frames, snapshot needed %v, err %v; want a snapshot",
					when, from, len(frames), need, err)
			}
			if b, err := store.ExportSince(ctx, from, 0); err != nil || !b.SnapshotNeeded || len(b.Records) > 0 {
				t.Fatalf("%s: ExportSince(%d) = %+v, %v; want snapshot_needed", when, from, b, err)
			}
		}
	}
	behind("adopted", 2)

	follower := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x", ShipInterval: 5 * time.Millisecond})
	if err := r.SetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 2, Followers: []string{follower.srv.URL}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := store.Submit(ctx, fmt.Sprintf("post-%d", i), 1, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	behind("promoted", 2)
	if frames, need, err := d.framesSince(2, 100); err != nil || need || len(frames) != 2 || frames[0].Seq != 3 {
		t.Fatalf("framesSince(2) after promotion = %d frames, snapshot needed %v, err %v; want seqs 3 and 4", len(frames), need, err)
	}
	waitFor(t, 5*time.Second, "follower convergence", func() bool {
		return follower.d.durableSeq() == d.durableSeq() && follower.d.Epoch() == 2
	})
	if got, want := signature(t, follower.store), signature(t, store); got != want {
		t.Fatal("follower dataset differs from the promoted node's")
	}
	if n := counterVal(reg, "repl.snapshot_ships"); n != 1 {
		t.Errorf("repl.snapshot_ships = %d, want 1", n)
	}
	ds, err := follower.store.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ds.Accounts {
		if strings.HasPrefix(a.ID, "old-") {
			t.Fatalf("follower holds %s from the abandoned lineage", a.ID)
		}
	}
}

// TestExportSinceAcrossOneCompaction: a migration tail one compaction
// behind reads records from the retained generation; one more than a
// generation behind is told to re-seed.
func TestExportSinceAcrossOneCompaction(t *testing.T) {
	ctx := context.Background()
	store, d, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			if err := store.Submit(ctx, fmt.Sprintf("a%02d", i), i%3, float64(i), at(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(0, 6) // compaction at seq 4
	b, err := store.ExportSince(ctx, 0, 0)
	if err != nil || b.SnapshotNeeded || len(b.Records) != 6 || b.NextSeq != 6 {
		t.Fatalf("ExportSince(0) across one compaction = %d records, next %d, snapshot_needed %v, err %v; want 6 records",
			len(b.Records), b.NextSeq, b.SnapshotNeeded, err)
	}
	submit(6, 10) // compaction at seq 8: seqs 5–8 retained, 1–4 gone
	if b, err := store.ExportSince(ctx, 0, 0); err != nil || !b.SnapshotNeeded {
		t.Fatalf("ExportSince(0) two compactions back = %+v, %v; want snapshot_needed", b, err)
	}
	b, err = store.ExportSince(ctx, 4, 3)
	if err != nil || b.SnapshotNeeded || len(b.Records) != 3 || b.Records[0].Seq != 5 || b.NextSeq != 7 {
		t.Fatalf("ExportSince(4, 3) = %+v, %v; want seqs 5–7", b, err)
	}
}

// TestRetainedFramesStayWithinTwoGenerations pins the memory bound: after
// any number of compactions a node holds the frames since the compaction
// before last, and a reopened node only what it read back from its WAL.
func TestRetainedFramesStayWithinTwoGenerations(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{SnapshotEvery: 5, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 23; i++ {
		if err := store.Submit(ctx, fmt.Sprintf("a%02d", i), i%3, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
		store.mu.RLock()
		n, seq := d.retainedLocked()
		store.mu.RUnlock()
		// Generations end at seqs 5, 10, 15, 20: the frames kept are
		// those after the compaction before last.
		want := int(seq)
		if seq >= 10 {
			want = int(seq - (seq/5-1)*5)
		}
		if n != want || n > 2*5 {
			t.Fatalf("after seq %d: %d frames retained, want %d", seq, n, want)
		}
	}
	if got := counterVal(reg, "wal.snapshots"); got != 4 {
		t.Fatalf("wal.snapshots = %d, want 4", got)
	}
	if frames, need, err := d.framesSince(15, 0); err != nil || need || len(frames) != 8 || frames[7].Seq != 23 {
		t.Fatalf("framesSince(15) = %d frames, snapshot needed %v, err %v; want seqs 16–23", len(frames), need, err)
	}
	if _, need, _ := d.framesSince(14, 0); !need {
		t.Fatal("framesSince(14) served frames older than two generations")
	}
	if err := d.Abort(); err != nil { // crash-style stop: no final snapshot
		t.Fatal(err)
	}
	// Reopened, the node holds only its WAL: seqs 21–23.
	_, d2, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, need, _ := d2.framesSince(19, 0); !need {
		t.Fatal("reopened node served frames it no longer holds")
	}
	if frames, need, err := d2.framesSince(20, 0); err != nil || need || len(frames) != 3 || frames[0].Seq != 21 {
		t.Fatalf("reopened framesSince(20) = %d frames, snapshot needed %v, err %v; want seqs 21–23", len(frames), need, err)
	}
}
