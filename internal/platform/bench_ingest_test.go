package platform

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/obs"
)

// BenchmarkIngest measures acknowledged durable submits per second under
// 32 concurrent submitters, comparing the three ingestion shapes:
//
//   - linger-0: group commit with no linger (CommitLinger 0) — an fsync
//     starts as soon as no other is in flight, covering every record
//     appended while the previous one ran.
//   - group-commit: concurrent single submits coalesced into shared
//     fsyncs (2ms linger, early wake at 8 pending).
//   - batched-submit: SubmitBatch envelopes of 16 with no linger — one
//     WAL write per envelope, and one fsync shared by every envelope
//     appended meanwhile.
//
// Run via `make bench-ingest`.
func BenchmarkIngest(b *testing.B) {
	const workers = 32

	b.Run("linger-0", func(b *testing.B) {
		benchConcurrentSubmits(b, workers, DurableOptions{})
	})
	b.Run("group-commit", func(b *testing.B) {
		benchConcurrentSubmits(b, workers, DurableOptions{
			CommitLinger:   2 * time.Millisecond,
			CommitMaxBatch: 8,
		})
	})
	b.Run("batched-submit-16", func(b *testing.B) {
		benchBatchedSubmits(b, workers, 16, DurableOptions{})
	})
}

// BenchmarkIngestReplicated measures the ack-mode cost of replication: a
// primary shipping its WAL over real HTTP to one follower, under the same
// 32-submitter load as BenchmarkIngest, comparing:
//
//   - async: acks return after the primary's own group-commit fsync; the
//     follower catches up in the background, so the overhead is just the
//     shipper competing for the WAL.
//   - semi-sync: every ack also waits for the follower to confirm the
//     record durable, putting a ship round-trip plus a remote fsync on
//     the ack path.
//   - semi-sync-compacting: semi-sync with cmd/mcsplatform's defaults, a
//     compaction every 1024 records, a 2ms linger and a commit batch of
//     64, so the cost of compaction, and of any snapshot it makes the
//     primary ship, is in the ack rate. The first two never compact.
//
// Each case also reports the primary's repl.snapshot_ships per 1,000
// acks. Run via `make bench-ingest` alongside the unreplicated shapes.
func BenchmarkIngestReplicated(b *testing.B) {
	const workers = 32
	groupCommit := DurableOptions{CommitLinger: 2 * time.Millisecond, CommitMaxBatch: 8}

	b.Run("async", func(b *testing.B) {
		benchReplicatedSubmits(b, workers, AckAsync, groupCommit)
	})
	b.Run("semi-sync", func(b *testing.B) {
		benchReplicatedSubmits(b, workers, AckSemiSync, groupCommit)
	})
	b.Run("semi-sync-compacting", func(b *testing.B) {
		benchReplicatedSubmits(b, workers, AckSemiSync, DurableOptions{
			SnapshotEvery:  1024,
			CommitLinger:   2 * time.Millisecond,
			CommitMaxBatch: 64,
		})
	})
}

// benchReplicatedSubmits drives b.N single submits against a primary
// replicating to one HTTP follower in the given ack mode. Both replicas
// run with opts, so the comparison isolates the replication overhead.
func benchReplicatedSubmits(b *testing.B, workers int, mode AckMode, opts DurableOptions) {
	fstore, fd, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer fd.Close()
	frepl := NewReplication(fstore, fd, ReplicationOptions{
		FollowerOf: "http://primary.invalid",
		Registry:   obs.NewRegistry(),
	})
	defer frepl.Close()
	fsrv := httptest.NewServer(NewServerWithOptions(fstore, ServerOptions{
		Registry:     obs.NewRegistry(),
		Replication:  frepl,
		DisableWatch: true,
	}))
	defer fsrv.Close()

	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	reg := obs.NewRegistry()
	repl := NewReplication(store, d, ReplicationOptions{
		Mode:         mode,
		Followers:    []string{fsrv.URL},
		ShipInterval: time.Millisecond,
		Registry:     reg,
	})
	defer repl.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				i := next
				next++
				idx.Unlock()
				if i >= b.N {
					return
				}
				account := fmt.Sprintf("w%02d-%06d", w, i)
				if err := store.Submit(context.Background(), account, 0, -80, at(0)); err != nil {
					b.Errorf("submit %s: %v", account, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
	b.ReportMetric(float64(reg.Snapshot().Counters["repl.snapshot_ships"])*1000/float64(b.N), "snapshot-ships/1k-acks")
}

// benchConcurrentSubmits drives b.N single submits across `workers`
// goroutines against a fresh durable store. Every (account, task) pair is
// unique so the duplicate guard never fires.
func benchConcurrentSubmits(b *testing.B, workers int, opts DurableOptions) {
	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				i := next
				next++
				idx.Unlock()
				if i >= b.N {
					return
				}
				account := fmt.Sprintf("w%02d-%06d", w, i)
				if err := store.Submit(context.Background(), account, 0, -80, at(0)); err != nil {
					b.Errorf("submit %s: %v", account, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
}

// benchBatchedSubmits drives b.N submits in SubmitBatch envelopes of
// batchSize, spread across `workers` goroutines.
func benchBatchedSubmits(b *testing.B, workers, batchSize int, opts DurableOptions) {
	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				start := next
				next += batchSize
				idx.Unlock()
				if start >= b.N {
					return
				}
				end := start + batchSize
				if end > b.N {
					end = b.N
				}
				items := make([]BatchSubmission, 0, end-start)
				for i := start; i < end; i++ {
					items = append(items, BatchSubmission{
						Account: fmt.Sprintf("w%02d-%06d", w, i), Task: 0, Value: -80, At: at(0),
					})
				}
				for i, e := range store.SubmitBatch(context.Background(), items) {
					if e != nil {
						b.Errorf("batch item %d: %v", start+i, e)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
}
