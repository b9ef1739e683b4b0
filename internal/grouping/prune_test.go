package grouping

import (
	"math"
	"testing"
	"time"

	"sybiltd/internal/dtw"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/simulate"
)

// TestAGTRPruneCountersCoverEveryPair groups the 500-account campaign of
// BenchmarkAGTRGrouping500 and checks the pair pass's counters: every pair
// leaves the predicate exactly once or is reused from a kept pass (never,
// in a full pass), so the four deltas sum to n(n-1)/2 at any GOMAXPROCS,
// and every edge needs the full Eq. (8) sum, so pairs_full_dtw is at least
// the edge count (measured here without any pruning).
func TestAGTRPruneCountersCoverEveryPair(t *testing.T) {
	sc, err := simulate.Build(simulate.Config{Seed: 11, NumLegit: 490, SybilActiveness: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	ds := sc.Dataset
	n := ds.NumAccounts()
	g := AGTR{Phi: 0.3}

	origin, unit := g.timeAxis(ds)
	tasks := make([][]float64, n)
	times := make([][]float64, n)
	for i := range tasks {
		tasks[i], times[i] = g.Series(ds, i, origin, unit)
	}
	var calc dtw.Calculator
	edges := int64(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.dissimilarity(&calc, tasks[i], times[i], tasks[j], times[j]) < g.Phi {
				edges++
			}
		}
	}
	if edges == 0 {
		t.Fatal("campaign has no AG-TR edges; the check below would be vacuous")
	}

	reg := obs.Default()
	counters := []*obs.Counter{
		reg.Counter("grouping.agtr.pairs_pruned_bound"),
		reg.Counter("grouping.agtr.pairs_pruned_task_dtw"),
		reg.Counter("grouping.agtr.pairs_full_dtw"),
		reg.Counter("grouping.agtr.pairs_reused"),
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			before := make([]int64, len(counters))
			for k, c := range counters {
				before[k] = c.Value()
			}
			if _, err := g.Group(ds); err != nil {
				t.Fatal(err)
			}
			var sum int64
			delta := make([]int64, len(counters))
			for k, c := range counters {
				delta[k] = c.Value() - before[k]
				sum += delta[k]
			}
			if want := int64(n * (n - 1) / 2); sum != want {
				t.Errorf("procs %d: counter deltas %v sum to %d, want n(n-1)/2 = %d", procs, delta, sum, want)
			}
			if delta[2] < edges {
				t.Errorf("procs %d: pairs_full_dtw = %d, below the %d edges", procs, delta[2], edges)
			}
			if delta[3] != 0 {
				t.Errorf("procs %d: a full pass reused %d pairs", procs, delta[3])
			}
			t.Logf("procs %d: pruned by bound %d, by task DTW %d, full DTW %d; %d edges", procs, delta[0], delta[1], delta[2], edges)
		})
	}
}

// TestAGTSRejectsTaskOutsideCampaign checks that a task index outside
// [0, m) is an error from Group and Overlap, and NaN from Affinity, rather
// than a panic in the bitset build.
func TestAGTSRejectsTaskOutsideCampaign(t *testing.T) {
	for _, task := range []int{-1, 2, 64} {
		ds := mcs.NewDataset(2)
		at := time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)
		ds.AddAccount(mcs.Account{ID: "ok", Observations: []mcs.Observation{{Task: 0, Time: at}}})
		ds.AddAccount(mcs.Account{ID: "bad", Observations: []mcs.Observation{{Task: task, Time: at}}})
		if _, err := (AGTS{}).Group(ds); err == nil {
			t.Errorf("task %d: Group accepted a task outside [0,2)", task)
		}
		if _, _, err := (AGTS{}).Overlap(ds, 0, 1); err == nil {
			t.Errorf("task %d: Overlap accepted a task outside [0,2)", task)
		}
		if a := (AGTS{}).Affinity(ds, 0, 1); !math.IsNaN(a) {
			t.Errorf("task %d: Affinity = %v, want NaN", task, a)
		}
	}
}
