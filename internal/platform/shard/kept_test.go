package shard

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/core"
	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
	"sybiltd/internal/truth"
)

// keptCampaign is a campaign both threshold groupers find groups in:
// leaders report on four of six tasks, and each follower repeats its
// leader's tasks in the same order a few minutes later. Its timestamps
// are at a +05:30 offset, for which every JSON decode builds a zone of
// its own.
func keptCampaign(accounts int) []platform.BatchSubmission {
	zone := time.FixedZone("", 5*3600+1800)
	var items []platform.BatchSubmission
	for i := 0; i < accounts; i++ {
		lead, lag := i, 0
		if i%3 != 0 {
			lead, lag = i-i%3, 2*(i%3)
		}
		for k := 0; k < 4; k++ {
			g := lead / 3
			task := (g + k*(1+4*(g%2))) % 6
			items = append(items, platform.BatchSubmission{
				Account: fmt.Sprintf("kept-%03d", i),
				Task:    task,
				Value:   float64(-70 - (i*7+k)%13),
				At:      at(lead%40 + 3*k + lag).In(zone),
			})
		}
	}
	return items
}

// testedPairs sums the AG-TR pair counters of the pairs a pass tested.
func testedPairs() int64 {
	reg := obs.Default()
	return reg.Counter("grouping.agtr.pairs_pruned_bound").Value() +
		reg.Counter("grouping.agtr.pairs_pruned_task_dtw").Value() +
		reg.Counter("grouping.agtr.pairs_full_dtw").Value()
}

// sameTruths fails unless got answers every task bit for bit as want does.
func sameTruths(t *testing.T, where string, got []platform.TruthDTO, want truth.Result) {
	t.Helper()
	if len(got) != len(want.Truths) {
		t.Fatalf("%s: %d truths, want %d", where, len(got), len(want.Truths))
	}
	for _, tr := range got {
		w := want.Truths[tr.Task]
		if tr.Estimated != !math.IsNaN(w) || (tr.Estimated && math.Float64bits(tr.Value) != math.Float64bits(w)) {
			t.Fatalf("%s task %d: router %v (estimated %v), fresh gather %v", where, tr.Task, tr.Value, tr.Estimated, w)
		}
	}
}

// TestRouterKeptPassMatchesFreshGather aggregates td-tr and td-ts through
// an HTTP router that keeps its td-tr grouping pass, writes to one group,
// and aggregates again. Every answer, including those of concurrent
// aggregates, must equal AggregateDataset over a fresh gather bit for bit,
// and a td-tr aggregate with no write since the last must test no pair.
func TestRouterKeptPassMatchesFreshGather(t *testing.T) {
	f := newHTTPFleet(t, 3, 6)
	ctx := context.Background()
	for _, err := range f.store.SubmitBatch(ctx, keptCampaign(45)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, method := range []string{"td-tr", "td-ts"} {
		alg, err := platform.AlgorithmByName(method)
		if err != nil {
			t.Fatal(err)
		}
		ds := freshGather(t, f.store)
		_, g, err := alg.(core.Framework).RunDetailed(ds)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumGroups() > ds.NumAccounts()*2/3 {
			t.Fatalf("%s finds %d groups in %d accounts; the checks below would be weak", method, g.NumGroups(), ds.NumAccounts())
		}
	}
	for step := 0; step < 12; step++ {
		switch step % 3 {
		case 1: // a new follower of an existing account
			lead, err := f.store.Dataset(ctx)
			if err != nil {
				t.Fatal(err)
			}
			a := lead.Accounts[step%lead.NumAccounts()]
			var batch []platform.SubmissionRequest
			for _, o := range a.Observations {
				batch = append(batch, platform.SubmissionRequest{Account: fmt.Sprintf("follower-%d", step), Task: o.Task, Value: -71, Time: o.Time.Add(time.Minute)})
			}
			if _, err := f.client.SubmitBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		case 2: // a late report on an existing account
			account := fmt.Sprintf("kept-%03d", step)
			ds, err := f.store.Dataset(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range ds.Accounts {
				if a.ID != account {
					continue
				}
				seen := a.TaskSet()
				for task := 0; task < 6; task++ {
					if !seen[task] {
						if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: account, Task: task, Value: -74, Time: at(59)}); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
		}
		ref := freshGather(t, f.store)
		for _, method := range []string{"td-tr", "td-ts"} {
			want, _, err := platform.AggregateDataset(ctx, method, ref)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("step %d %s", step, method)
			got, err := f.client.Aggregate(ctx, method)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			sameTruths(t, where, got.Truths, want)

			// Nothing was written since: no pair is tested again.
			tested := testedPairs()
			again, err := f.client.Aggregate(ctx, method)
			if err != nil {
				t.Fatal(err)
			}
			sameTruths(t, where+" repeated", again.Truths, want)
			if d := testedPairs() - tested; d != 0 {
				t.Errorf("%s: a repeated aggregate tested %d AG-TR pairs, want 0", where, d)
			}

			if step%3 == 0 {
				var wg sync.WaitGroup
				answers := make([]platform.AggregateResponse, 4)
				errs := make([]error, len(answers))
				for i := range answers {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						answers[i], errs[i] = f.client.Aggregate(ctx, method)
					}(i)
				}
				wg.Wait()
				for i := range answers {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					sameTruths(t, fmt.Sprintf("%s concurrent %d", where, i), answers[i].Truths, want)
				}
			}
		}
	}
}

// TestRouterKeptPassAcrossReshardAndRestart keeps the router's td-tr
// grouping pass across a shrink and a grow of a fleet of durable HTTP
// shards, each of which re-orders the merged accounts, and across a shard
// restart, which does not. After a reshard the first aggregate runs a full
// pass and the next reuses every pair. After the restart the router
// decodes the restarted shard's dataset again, and with it the +05:30
// timestamps into new zones; no account changed, so the aggregate must
// reuse every pair. Every answer must equal AggregateDataset over a fresh
// gather bit for bit.
func TestRouterKeptPassAcrossReshardAndRestart(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	shard := func(name string) (*crashableShard, platform.Store) {
		c := newCrashableShard(t, filepath.Join(root, name), 6)
		return c, platform.NewRemoteStore(platform.NewClient(c.srv.URL, platform.WithRetries(0)))
	}
	shards := make([]*crashableShard, 3)
	backends := make([]platform.Store, len(shards))
	addrs := make([]string, len(shards))
	for i := range shards {
		shards[i], backends[i] = shard(fmt.Sprintf("shard-%d", i))
		addrs[i] = shards[i].srv.URL
	}
	s, err := New(ctx, backends, Options{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.SubmitBatch(ctx, keptCampaign(45)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	order := func() []string {
		ds, err := s.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, ds.NumAccounts())
		for i, a := range ds.Accounts {
			ids[i] = a.ID
		}
		return ids
	}
	reused := obs.Default().Counter("grouping.agtr.pairs_reused")
	aggregate := func(where string, wantReuse bool) {
		t.Helper()
		ref := freshGather(t, s)
		n := int64(ref.NumAccounts())
		want, _, err := platform.AggregateDataset(ctx, "td-tr", ref)
		if err != nil {
			t.Fatal(err)
		}
		r0 := reused.Value()
		got, _, err := s.Aggregate(ctx, "td-tr")
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for j, w := range want.Truths {
			if math.Float64bits(got.Truths[j]) != math.Float64bits(w) {
				t.Fatalf("%s task %d: router %v, fresh gather %v", where, j, got.Truths[j], w)
			}
		}
		if d := reused.Value() - r0; wantReuse && d != n*(n-1)/2 {
			t.Errorf("%s: reused %d pairs, want all %d", where, d, n*(n-1)/2)
		}
	}
	aggregate("before", false)
	aggregate("before, repeated", true)
	before := order()

	m, err := s.StartDecommission(1, migOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatal(err)
	}
	shrunk := order()
	if reflect.DeepEqual(before, shrunk) {
		t.Fatal("the shrink left the merged account order as it was; the check below would be vacuous")
	}
	aggregate("after shrink", false)
	aggregate("after shrink, repeated", true)

	joiner, backend := shard("joiner")
	m, err = s.StartMigration(GroupConfig{Replicas: []platform.Store{backend}, Addrs: []string{joiner.srv.URL}}, migOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatal(err)
	}
	grown := order()
	if reflect.DeepEqual(shrunk, grown) {
		t.Fatal("the grow left the merged account order as it was; the check below would be vacuous")
	}
	aggregate("after grow", false)
	aggregate("after grow, repeated", true)

	shards[0].kill()
	shards[0].restart(6)
	if !reflect.DeepEqual(grown, order()) {
		t.Fatal("the restart changed the merged account order")
	}
	aggregate("after restart", true)
}
