package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/platform"
)

// BenchmarkIngestSharded measures acknowledged submits per second through
// a shard.Store over 1, 2, and 4 durable LocalStore backends (group
// commit on, like a production shard), under 32 concurrent submitters.
// On one machine all shards share a disk, so this quantifies the sharding
// tax rather than the fleet win: ring routing per submit, and group
// commits coalescing fewer records per fsync as the same submitter pool
// spreads across more WALs. The fleet win (independent disks, independent
// store locks) is what the chaos campaign's multi-process topology buys;
// this row exists so BENCH_ingest.json catches regressions in the
// routing path itself.
//
// Run via `make bench-ingest`; rows land in BENCH_ingest.json alongside
// the single-node shapes.
func BenchmarkIngestSharded(b *testing.B) {
	const workers = 32
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			backends := make([]platform.Store, shards)
			for i := range backends {
				store, d, _, err := platform.OpenDurable(b.TempDir(), testTasks(1), platform.DurableOptions{
					CommitLinger:   2 * time.Millisecond,
					CommitMaxBatch: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				backends[i] = store
			}
			s, err := New(context.Background(), backends, Options{})
			if err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			submitAll(context.Background(), b, s, workers)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
		})
	}
}

// BenchmarkIngestShardedHTTP measures acknowledged submits per second
// over the router's hop: 32 concurrent submitters through a shard.Store
// whose three shards are durable nodes served over HTTP (group commit
// with a 2 ms linger and batches of up to 64, as perfbench's fleet runs
// them), reached through shard clients built as cmd/mcsrouter builds
// them. conns/1k-acks counts the connections the shards accepted per
// 1,000 acks: single digits while the router keeps its connections,
// hundreds when each burst ends by closing them.
//
// Run via `make bench-ingest`; rows land in BENCH_ingest.json alongside
// the other ingest shapes.
func BenchmarkIngestShardedHTTP(b *testing.B) {
	const shards, workers = 3, 32
	backends := make([]platform.Store, shards)
	counters := make([]*acceptCounter, shards)
	for i := range backends {
		store, d, _, err := platform.OpenDurable(b.TempDir(), testTasks(1), platform.DurableOptions{
			CommitLinger:   2 * time.Millisecond,
			CommitMaxBatch: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = d.Close() })
		api := platform.NewServer(store, nil)
		b.Cleanup(api.Close)
		srv, l := serveCounted(b, api)
		counters[i] = l
		backends[i] = platform.NewRemoteStore(routerShardClient(srv.URL))
	}
	s, err := New(context.Background(), backends, Options{})
	if err != nil {
		b.Fatal(err)
	}
	accepted := func() (n int64) {
		for _, l := range counters {
			n += l.accepted.Load()
		}
		return n
	}

	before := accepted()
	b.ResetTimer()
	submitAll(context.Background(), b, s, workers)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
	b.ReportMetric(float64(accepted()-before)*1000/float64(b.N), "conns/1k-acks")
}

// BenchmarkIngestDuringReshard measures acknowledged submits per second
// through a sharded store while an online reshard runs underneath it: a
// 2-shard durable fleet grows to 3 with the migration coordinator
// seeding, catching up, flipping, fencing, and draining concurrently
// with the load. Compare against BenchmarkIngestSharded's shards-2 row
// to see what a live migration costs foreground writes.
//
// Run via `make bench-ingest`; rows land in BENCH_ingest.json alongside
// the other ingest shapes.
func BenchmarkIngestDuringReshard(b *testing.B) {
	const workers = 32

	s, _ := newDurableFleet(b, 2, 1)
	joiner := durableBackend(b, 1)
	m, err := s.StartMigration(GroupConfig{Replicas: []platform.Store{joiner}}, migOpts(b))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	migDone := make(chan error, 1)

	b.ResetTimer()
	go func() { migDone <- m.Run(ctx) }()
	submitAll(ctx, b, s, workers)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")

	// The migration may or may not have finished within b.N submits;
	// either way it must end cleanly before the backends close.
	cancel()
	if err := <-migDone; err != nil && ctx.Err() == nil {
		b.Fatalf("migration: %v", err)
	}
}

// submitAll has workers concurrent submitters share b.N acknowledged
// submits through s, each to a fresh account.
func submitAll(ctx context.Context, b *testing.B, s *Store, workers int) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				account := fmt.Sprintf("w%02d-%06d", w, i)
				if err := s.Submit(ctx, account, 0, -80, at(0)); err != nil {
					b.Errorf("submit %s: %v", account, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
