package grouping

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"sybiltd/internal/dtw"
	"sybiltd/internal/mcs"
	"sybiltd/internal/simulate"
)

// oracleGroups is the exhaustive reference for threshold grouping: it asks
// edge about every pair i < j and returns the connected components of the
// accepted pairs, found by a depth-first search over adjacency lists
// (independent of the union-find the groupers use). Components are sorted
// and ordered by smallest member, the normalized form of Grouping.
func oracleGroups(n int, edge func(i, j int) bool) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if edge(i, j) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	var groups [][]int
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []int{start}
		for stack := []int{start}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		groups = append(groups, comp)
	}
	return groups
}

// thresholdOracleCase is one threshold grouper with its exhaustive
// expectation: the paper's edge rule applied to the public pair measure.
type thresholdOracleCase struct {
	g    Grouper
	edge func(ds *mcs.Dataset, i, j int) bool
}

func agtsOracleCase(rho float64) thresholdOracleCase {
	g := AGTS{Rho: rho, RhoSet: true}
	return thresholdOracleCase{g, func(ds *mcs.Dataset, i, j int) bool { return g.Affinity(ds, i, j) > rho }}
}

func agtrOracleCase(mode TRMode, phi float64) thresholdOracleCase {
	g := AGTR{Phi: phi, PhiSet: true, Mode: mode}
	return thresholdOracleCase{g, func(ds *mcs.Dataset, i, j int) bool { return g.Dissimilarity(ds, i, j) < phi }}
}

// agtrPruneValues returns, for pair (i, j) of ds, the values the AG-TR
// pair pass compares φ against before it computes the Eq. (8) sum: the
// sum of the task and timestamp endpoint bounds, the task bound alone and
// the task DTW. They come from the public dtw API, not the grouper's own
// mode dispatch.
func agtrPruneValues(ds *mcs.Dataset, mode TRMode, i, j int) []float64 {
	g := AGTR{Mode: mode}
	origin, unit := g.timeAxis(ds)
	xi, yi := g.Series(ds, i, origin, unit)
	xj, yj := g.Series(ds, j, origin, unit)
	bound, dist := dtw.DistanceBound, dtw.Distance
	if mode == TRAbsolute {
		bound, dist = dtw.AbsoluteCostBound, dtw.AbsoluteCost
	}
	taskBound := bound(dtw.EndsOf(xi), dtw.EndsOf(xj))
	return []float64{taskBound + bound(dtw.EndsOf(yi), dtw.EndsOf(yj)), taskBound, dist(xi, xj)}
}

// checkExactThresholds runs checkAgainstOracle on ds once per account
// pair, with the thresholds set to that pair's measured values (see the
// exact-thresholds case of TestThresholdGroupingMatchesOracle).
func checkExactThresholds(ds *mcs.Dataset) error {
	n := ds.NumAccounts()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cases := []thresholdOracleCase{agtsOracleCase(AGTS{}.Affinity(ds, i, j))}
			for _, mode := range []TRMode{TREq7, TRAbsolute} {
				cases = append(cases, agtrOracleCase(mode, AGTR{Mode: mode}.Dissimilarity(ds, i, j)))
				for _, phi := range agtrPruneValues(ds, mode, i, j) {
					cases = append(cases, agtrOracleCase(mode, phi), agtrOracleCase(mode, math.Nextafter(phi, math.Inf(1))))
				}
			}
			if err := checkAgainstOracle(ds, cases); err != nil {
				return fmt.Errorf("pair (%d,%d): %v", i, j, err)
			}
		}
	}
	return nil
}

// lockstepCampaign is a campaign whose accounts all report at the same
// instants, one or two tasks each. Their timestamp series coincide or
// differ only in length, so on pairs of single-report accounts the
// timestamp DTW is zero and every bound is tight: the task bound, the
// combined bound, the task DTW and the Eq. (8) dissimilarity are one value.
func lockstepCampaign() *mcs.Dataset {
	ds := mcs.NewDataset(4)
	start := time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)
	for i, tasks := range [][]int{{0}, {1}, {3}, {0}, {0, 2}, {1, 2}, {0, 3}} {
		var obs []mcs.Observation
		for k, task := range tasks {
			obs = append(obs, mcs.Observation{Task: task, Time: start.Add(time.Duration(k) * time.Hour)})
		}
		ds.AddAccount(mcs.Account{ID: fmt.Sprint("lockstep", i), Observations: obs})
	}
	return ds
}

// checkAgainstOracle groups ds with every case and reports the first
// partition that differs from the exhaustive one.
func checkAgainstOracle(ds *mcs.Dataset, cases []thresholdOracleCase) error {
	n := ds.NumAccounts()
	for _, c := range cases {
		got, err := c.g.Group(ds)
		if err != nil {
			return fmt.Errorf("%s: %v", c.g.Name(), err)
		}
		want := oracleGroups(n, func(i, j int) bool { return c.edge(ds, i, j) })
		if !reflect.DeepEqual(got.Groups, want) {
			return fmt.Errorf("%s (%+v): partition %v, exhaustive oracle %v", c.g.Name(), c.g, got.Groups, want)
		}
	}
	return nil
}

// TestThresholdGroupingMatchesOracle checks that AG-TS and AG-TR (both DTW
// modes) return exactly the connected components of the paper's threshold
// graph — affinity strictly above ρ, dissimilarity strictly below φ — as
// measured pair by pair through the public Affinity and Dissimilarity.
func TestThresholdGroupingMatchesOracle(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		f := func(seed int64, rhoRaw, phiRaw uint8) bool {
			ds := randomCampaign(seed)
			rho := float64(rhoRaw)/32 - 2 // spans negative..positive
			phi := float64(phiRaw) / 64
			cases := []thresholdOracleCase{agtsOracleCase(rho), agtrOracleCase(TREq7, phi), agtrOracleCase(TRAbsolute, phi)}
			if err := checkAgainstOracle(ds, cases); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Error(err)
		}
	})

	// Thresholds set exactly to a measured pair value: the strict
	// inequalities must leave that pair out, so a >= or <= slip shows. For
	// AG-TR, φ also sits exactly on, and one float above, each value the
	// pair pass prunes by before the Eq. (8) sum: the combined endpoint
	// bound, the task-series bound and the task DTW. Where those values
	// equal the dissimilarity (see lockstepCampaign), the float above makes
	// the pair an edge that a prune firing one ulp early would drop.
	t.Run("exact-thresholds", func(t *testing.T) {
		f := func(seed int64) bool {
			if err := checkExactThresholds(randomCampaign(seed)); err != nil {
				t.Logf("seed %d %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
		if err := checkExactThresholds(lockstepCampaign()); err != nil {
			t.Errorf("lockstep campaign %v", err)
		}
	})

	t.Run("simulated", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			sc, err := simulate.Build(simulate.Config{Seed: seed, NumLegit: 40, SybilActiveness: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			cases := []thresholdOracleCase{agtsOracleCase(DefaultRho), agtrOracleCase(TREq7, 0.3), agtrOracleCase(TRAbsolute, 3)}
			for _, procs := range []int{1, 4} {
				withProcs(t, procs, func() {
					if err := checkAgainstOracle(sc.Dataset, cases); err != nil {
						t.Errorf("seed %d procs %d: %v", seed, procs, err)
					}
				})
			}
		}
	})
}
