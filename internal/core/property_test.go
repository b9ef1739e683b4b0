package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/truth"
)

// randomDataset builds a small random campaign with a random (but valid)
// oracle partition.
func randomDataset(seed int64) (*mcs.Dataset, grouping.Grouping) {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(6)
	n := 2 + rng.Intn(8)
	ds := mcs.NewDataset(m)
	base := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		var obs []mcs.Observation
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.4 {
				continue
			}
			obs = append(obs, mcs.Observation{
				Task:  j,
				Value: -90 + rng.Float64()*50,
				Time:  base.Add(time.Duration(rng.Intn(3600)) * time.Second),
			})
		}
		ds.AddAccount(mcs.Account{ID: string(rune('a' + i)), Observations: obs})
	}
	// Random partition into up to 3 groups.
	k := 1 + rng.Intn(3)
	groups := make([][]int, k)
	for i := 0; i < n; i++ {
		g := rng.Intn(k)
		groups[g] = append(groups[g], i)
	}
	var nonEmpty [][]int
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	return ds, grouping.Grouping{Groups: nonEmpty}
}

// Property: for every task with data, the estimate of every user of the
// weight/truth loop — the framework and CRH, CATD and GTM — lies within the
// hull [min, max] of the submitted values (it is a weighted mean of group
// aggregates or of values, and aggregates are themselves means/medians of
// values), tasks nobody reported stay NaN, and all account weights are
// finite and non-negative. An account whose group (for CRH, CATD and GTM:
// the account alone) has no observations gets weight 0.
func TestFrameworkEstimateWithinHullProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds, g := randomDataset(seed)
		singletons := grouping.Singletons(ds.NumAccounts()).Groups
		for _, c := range []struct {
			alg    truth.Algorithm
			groups [][]int
		}{
			{Framework{Grouper: oracleGrouper{groups: g.Groups}}, g.Groups},
			{truth.CRH{}, singletons},
			{truth.CATD{}, singletons},
			{truth.GTM{}, singletons},
		} {
			res, err := c.alg.Run(ds)
			if err != nil {
				t.Logf("%s: %v", c.alg.Name(), err)
				return false
			}
			if !estimatesWithinHull(ds, res) || !idleGroupsWeightless(ds, c.groups, res.Weights) {
				t.Logf("%s fails on seed %d", c.alg.Name(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func estimatesWithinHull(ds *mcs.Dataset, res truth.Result) bool {
	for j := 0; j < ds.NumTasks(); j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for ai := range ds.Accounts {
			if v, ok := ds.Value(ai, j); ok {
				any = true
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		est := res.Truths[j]
		if !any {
			if !math.IsNaN(est) {
				return false
			}
			continue
		}
		if math.IsNaN(est) || est < lo-1e-9 || est > hi+1e-9 {
			return false
		}
	}
	for _, w := range res.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return false
		}
	}
	return true
}

// idleGroupsWeightless reports whether every member of every group whose
// members all have no observations has weight 0.
func idleGroupsWeightless(ds *mcs.Dataset, groups [][]int, weights []float64) bool {
	for _, members := range groups {
		idle := true
		for _, a := range members {
			if len(ds.Accounts[a].Observations) > 0 {
				idle = false
			}
		}
		for _, a := range members {
			if idle && weights[a] != 0 {
				return false
			}
		}
	}
	return true
}

// Property: merging the Sybil accounts into a group never increases the
// attacked tasks' error relative to leaving them separate, on the paper's
// canonical example (averaged check; the framework's entire premise).
func TestGroupingNeverHelpsAttackerProperty(t *testing.T) {
	f := func(rawTarget uint8) bool {
		target := -80 + float64(rawTarget%60) // fabrications in [-80, -20]
		ds := mcs.NewDataset(3)
		base := time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)
		honest := []float64{-85, -75, -70}
		for u := 0; u < 3; u++ {
			var obs []mcs.Observation
			for j := 0; j < 3; j++ {
				obs = append(obs, mcs.Observation{Task: j, Value: honest[j] + float64(u-1), Time: base.Add(time.Duration(u*60+j) * time.Minute)})
			}
			ds.AddAccount(mcs.Account{ID: string(rune('a' + u)), Observations: obs})
		}
		for s := 0; s < 4; s++ {
			var obs []mcs.Observation
			for j := 0; j < 3; j++ {
				obs = append(obs, mcs.Observation{Task: j, Value: target, Time: base.Add(time.Duration(300+s*2+j*10) * time.Minute)})
			}
			ds.AddAccount(mcs.Account{ID: "s" + string(rune('0'+s)), Observations: obs})
		}
		separate := Framework{Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}}}}
		merged := Framework{Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3, 4, 5, 6}}}}
		resSep, err1 := separate.Run(ds)
		resMrg, err2 := merged.Run(ds)
		if err1 != nil || err2 != nil {
			return false
		}
		var errSep, errMrg float64
		for j := 0; j < 3; j++ {
			errSep += math.Abs(resSep.Truths[j] - honest[j])
			errMrg += math.Abs(resMrg.Truths[j] - honest[j])
		}
		return errMrg <= errSep+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
