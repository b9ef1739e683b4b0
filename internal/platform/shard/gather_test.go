package shard

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
)

// freshGather is the reference the router's reads are checked against. It
// reads every group's current primary through a new client, whose cache
// is empty (a LocalStore backend is read directly), keeps the accounts
// the ring assigns that group, and concatenates them in group order: the
// dataset the router must aggregate, built without the router's gather or
// anything it keeps.
func freshGather(t testing.TB, s *Store) *mcs.Dataset {
	t.Helper()
	top := s.topology()
	out := &mcs.Dataset{Tasks: append([]mcs.Task(nil), s.tasks...)}
	for gi, g := range top.groups {
		b := g.replicas[g.primaryIdx()]
		if rs, ok := b.(*platform.RemoteStore); ok {
			b = platform.NewRemoteStore(platform.NewClient(rs.Client().Endpoints()[0]))
		}
		ds, err := b.Dataset(context.Background())
		if err != nil {
			t.Fatalf("fresh read of group %d: %v", gi, err)
		}
		for _, a := range ds.Accounts {
			if top.ring.Shard(a.ID) == gi {
				out.Accounts = append(out.Accounts, a)
			}
		}
	}
	return out
}

// TestRouterAggregatesMatchFreshGatherUnderWrites interleaves writes and
// aggregates through an HTTP router: between two aggregates no shard, one
// shard or every shard changes, and refused writes change nothing. Each
// answer must be bit-identical to AggregateDataset over a fresh gather,
// and the router's merged dataset must equal that gather.
func TestRouterAggregatesMatchFreshGatherUnderWrites(t *testing.T) {
	f := newHTTPFleet(t, 3, 4)
	ctx := context.Background()
	owners := accountsPerShard(f.store)
	methods := []string{"td-tr", "crh", "td-ts", "mean", "median"}
	for sh, owner := range owners {
		if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: owner, Task: sh % 4, Value: -72, Time: at(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 40; step++ {
		account := fmt.Sprintf("worker-%d", step)
		switch step % 5 {
		case 1: // one shard changes
			if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: account, Task: step % 4, Value: float64(-70 - step%7), Time: at(step)}); err != nil {
				t.Fatal(err)
			}
		case 2: // every shard changes
			var batch []platform.SubmissionRequest
			for sh, owner := range owners {
				batch = append(batch, platform.SubmissionRequest{Account: fmt.Sprintf("%s-%d", owner, step), Task: sh % 4, Value: float64(-80 + sh + step%3), Time: at(step)})
			}
			if _, err := f.client.SubmitBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		case 3: // a fingerprint, then refused writes that change nothing
			if err := f.client.RecordFeatureFingerprint(ctx, fmt.Sprintf("worker-%d", step-2), testFeatures(float64(step))); err != nil {
				t.Fatal(err)
			}
			if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: fmt.Sprintf("worker-%d", step-2), Task: (step - 2) % 4, Value: 1, Time: at(step)}); err == nil {
				t.Fatal("duplicate report accepted")
			}
			if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: account, Task: 9, Value: 1, Time: at(step)}); err == nil {
				t.Fatal("unknown task accepted")
			}
		case 4: // a late report on an existing account
			if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: fmt.Sprintf("worker-%d", step-3), Task: (step - 2) % 4, Value: -75, Time: at(step)}); err != nil {
				t.Fatal(err)
			}
		}
		method := methods[step%len(methods)]
		got, err := f.client.Aggregate(ctx, method)
		if err != nil {
			t.Fatalf("step %d %s: %v", step, method, err)
		}
		ref := freshGather(t, f.store)
		want, _, err := platform.AggregateDataset(ctx, method, ref)
		if err != nil {
			t.Fatalf("step %d %s reference: %v", step, method, err)
		}
		if got.Meta.Degraded {
			t.Errorf("step %d %s: degraded (%s)", step, method, got.Meta.DegradedReason)
		}
		for _, tr := range got.Truths {
			w := want.Truths[tr.Task]
			if tr.Estimated != !math.IsNaN(w) || (tr.Estimated && math.Float64bits(tr.Value) != math.Float64bits(w)) {
				t.Errorf("step %d %s task %d: router %v (estimated %v), fresh gather %v", step, method, tr.Task, tr.Value, tr.Estimated, w)
			}
		}
		merged, err := f.store.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged, ref) {
			t.Fatalf("step %d: router dataset (%d accounts) differs from a fresh gather (%d accounts)", step, merged.NumAccounts(), ref.NumAccounts())
		}
	}
}

// countingTransport counts the response body bytes that cross it.
type countingTransport struct {
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// BenchmarkRouterGather times the router's whole-campaign read
// (Store.Dataset) over three HTTP shards holding synthetic accounts of
// three reports each, on both sides of the property revalidation relies
// on: no shard changed since the router's last read, one changed, or all
// three changed (one submit each per iteration, written in process
// outside the timer). KiB/op is the response body the router read per
// gather. Every iteration checks its result against a fresh gather,
// outside the timer. -short skips the 100,000-account size.
func BenchmarkRouterGather(b *testing.B) {
	for _, accounts := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			if testing.Short() && accounts > 10_000 {
				b.Skip("large size skipped under -short")
			}
			for _, changed := range []struct {
				name   string
				shards int
			}{{"unchanged", 0}, {"one-shard-changed", 1}, {"all-changed", 3}} {
				b.Run(changed.name, func(b *testing.B) {
					benchmarkGather(b, accounts, changed.shards)
				})
			}
		})
	}
}

func benchmarkGather(b *testing.B, accounts, changedShards int) {
	const shards, tasks = 3, 10
	ctx := context.Background()
	tr := &countingTransport{}
	locals := make([]*platform.LocalStore, shards)
	backends := make([]platform.Store, shards)
	for i := range locals {
		locals[i] = platform.NewLocalStore(testTasks(tasks))
		api := platform.NewServer(locals[i], nil)
		srv := httptest.NewServer(api)
		b.Cleanup(srv.Close)
		b.Cleanup(api.Close)
		backends[i] = platform.NewRemoteStore(platform.NewClient(srv.URL, platform.WithHTTPClient(&http.Client{Transport: tr})))
	}
	s, err := New(ctx, backends, Options{})
	if err != nil {
		b.Fatal(err)
	}
	routed := make([][]platform.BatchSubmission, shards)
	for i := 0; i < accounts; i++ {
		account := fmt.Sprintf("acct-%06d", i)
		gi := s.Shard(account)
		for _, task := range []int{i % tasks, (i + 3) % tasks, (i + 7) % tasks} {
			routed[gi] = append(routed[gi], platform.BatchSubmission{Account: account, Task: task, Value: float64(-90 + i%40), At: at(i % 60)})
		}
	}
	for gi, items := range routed {
		for _, err := range locals[gi].SubmitBatch(ctx, items) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	// One account name per shard for the per-iteration writes.
	next := 0
	write := func(gi int) {
		for ; ; next++ {
			if account := fmt.Sprintf("new-%d", next); s.Shard(account) == gi {
				if err := locals[gi].Submit(ctx, account, next%tasks, -70, at(0)); err != nil {
					b.Fatal(err)
				}
				next++
				return
			}
		}
	}
	if _, err := s.Dataset(ctx); err != nil { // warm connections (and caches)
		b.Fatal(err)
	}
	tr.n.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for gi := 0; gi < changedShards; gi++ {
			write(gi)
		}
		want := freshGather(b, s)
		b.StartTimer()
		got, err := s.Dataset(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !reflect.DeepEqual(got, want) {
			b.Fatalf("iteration %d: gather (%d accounts) differs from a fresh one (%d accounts)", i, got.NumAccounts(), want.NumAccounts())
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.n.Load())/1024/float64(b.N), "KiB/op")
}
