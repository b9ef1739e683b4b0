package sybiltd_test

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices the
// reproduction had to make. Each benchmark executes the experiment that
// regenerates the corresponding artifact; the first iteration of each
// prints the regenerated rows/series so that
// `go test -bench=. -benchmem` leaves a full copy of the paper's
// evaluation in its output (EXPERIMENTS.md records a curated run).

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sybiltd"
	"sybiltd/internal/core"
	"sybiltd/internal/experiment"
	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/simulate"
	"sybiltd/internal/truth"
)

// printOnce renders an experiment's tables to stdout the first time a
// benchmark runs, so bench output doubles as the regenerated evaluation.
var printedExperiments sync.Map

func printOnce(b *testing.B, id string, tables []*experiment.Table) {
	b.Helper()
	if _, loaded := printedExperiments.LoadOrStore(id, true); loaded {
		return
	}
	fmt.Printf("\n===== %s =====\n", id)
	for _, t := range tables {
		t.Render(os.Stdout)
		fmt.Println()
	}
}

func BenchmarkTable1Vulnerability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "table1", r.Tables())
		}
	}
}

func BenchmarkFig2AGFPExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig2(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig2", r.Tables())
		}
	}
}

func BenchmarkFig3AGTSExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig3", r.Tables())
		}
	}
}

func BenchmarkFig4AGTRExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig4", r.Tables())
		}
	}
}

// benchSweep keeps the per-iteration cost of the Fig. 6/7 benches sane
// while preserving the axes the paper reports.
func benchSweep() experiment.SweepConfig {
	return experiment.SweepConfig{
		LegitActiveness: []float64{0.2, 0.5, 1.0},
		SybilActiveness: []float64{0.2, 0.6, 1.0},
		Trials:          2,
		Seed:            5,
	}
}

func BenchmarkFig6ARIComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig6(benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig6", r.Tables())
		}
	}
}

func BenchmarkFig7MAEComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig7(benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig7", r.Tables())
		}
	}
}

func BenchmarkFig8FingerprintCenters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig8(8, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig8", r.Tables())
		}
	}
}

func BenchmarkTable4Inventory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiment.Table4()
		if i == 0 {
			printOnce(b, "table4", r.Tables())
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationGroupAggregator compares the three readings of the
// degenerate Eq. (3) (see DESIGN.md errata): framework MAE under each
// group-aggregation strategy on the same attacked campaign.
func BenchmarkAblationGroupAggregator(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 3, SybilActiveness: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	for _, agg := range []core.Aggregator{core.AggregateMean, core.AggregateMedian, core.AggregateInverseDeviation} {
		b.Run(agg.String(), func(b *testing.B) {
			fw := core.Framework{
				Grouper: grouping.AGTR{Phi: 0.3},
				Config:  core.Config{Aggregator: agg},
			}
			b.ReportAllocs()
			var lastMAE float64
			for i := 0; i < b.N; i++ {
				res, err := fw.Run(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				mae, err := experiment.MAEAgainstTruth(res.Truths, sc.GroundTruth)
				if err != nil {
					b.Fatal(err)
				}
				lastMAE = mae
			}
			b.ReportMetric(lastMAE, "MAE-dB")
		})
	}
}

// BenchmarkAblationAGTRThreshold sweeps the Eq. (8) threshold φ, reporting
// grouping ARI, to document the sensitivity the paper's Remarks discuss.
func BenchmarkAblationAGTRThreshold(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 3, SybilActiveness: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	want := sc.TrueGrouping()
	for _, phi := range []float64{0.05, 0.15, 0.3, 0.6, 1.2} {
		b.Run(fmt.Sprintf("phi=%.2f", phi), func(b *testing.B) {
			b.ReportAllocs()
			var lastARI float64
			for i := 0; i < b.N; i++ {
				g, err := (grouping.AGTR{Phi: phi}).Group(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				ari, err := sybiltd.AdjustedRandIndex(want, g.Labels(sc.Dataset.NumAccounts()))
				if err != nil {
					b.Fatal(err)
				}
				lastARI = ari
			}
			b.ReportMetric(lastARI, "ARI")
		})
	}
}

// BenchmarkAblationAGTSThreshold sweeps the Eq. (6) threshold ρ.
func BenchmarkAblationAGTSThreshold(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 3, SybilActiveness: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	want := sc.TrueGrouping()
	for _, rho := range []float64{0.25, 0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			b.ReportAllocs()
			var lastARI float64
			for i := 0; i < b.N; i++ {
				g, err := (grouping.AGTS{Rho: rho}).Group(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				ari, err := sybiltd.AdjustedRandIndex(want, g.Labels(sc.Dataset.NumAccounts()))
				if err != nil {
					b.Fatal(err)
				}
				lastARI = ari
			}
			b.ReportMetric(lastARI, "ARI")
		})
	}
}

// BenchmarkAblationElbowVsFixedK compares AG-FP with the elbow method
// against a fixed oracle k (the true device count), isolating how much of
// AG-FP's error is k-selection.
func BenchmarkAblationElbowVsFixedK(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	want := sc.TrueGrouping()
	devSet := map[int]bool{}
	for _, d := range sc.DeviceLabels {
		devSet[d] = true
	}
	cases := []struct {
		name string
		g    grouping.Grouper
	}{
		{"elbow", grouping.AGFP{}},
		{"silhouette", grouping.AGFP{UseSilhouette: true}},
		{"oracle-k", grouping.AGFP{FixedK: len(devSet)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var lastARI float64
			for i := 0; i < b.N; i++ {
				g, err := tc.g.Group(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				ari, err := sybiltd.AdjustedRandIndex(want, g.Labels(sc.Dataset.NumAccounts()))
				if err != nil {
					b.Fatal(err)
				}
				lastARI = ari
			}
			b.ReportMetric(lastARI, "ARI")
		})
	}
}

// BenchmarkAblationCombo compares the combined grouper modes (future work)
// against the individual methods.
func BenchmarkAblationCombo(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 3, SybilActiveness: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	want := sc.TrueGrouping()
	members := []grouping.Grouper{grouping.AGFP{}, grouping.AGTS{}, grouping.AGTR{Phi: 0.3}}
	cases := []struct {
		name string
		g    grouping.Grouper
	}{
		{"AG-FP", members[0]},
		{"AG-TS", members[1]},
		{"AG-TR", members[2]},
		{"combo-intersect", grouping.Combo{Members: members, Mode: grouping.CombineIntersect}},
		{"combo-union", grouping.Combo{Members: members, Mode: grouping.CombineUnion}},
		{"combo-majority", grouping.Combo{Members: members, Mode: grouping.CombineMajority}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var lastARI float64
			for i := 0; i < b.N; i++ {
				g, err := tc.g.Group(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				ari, err := sybiltd.AdjustedRandIndex(want, g.Labels(sc.Dataset.NumAccounts()))
				if err != nil {
					b.Fatal(err)
				}
				lastARI = ari
			}
			b.ReportMetric(lastARI, "ARI")
		})
	}
}

// BenchmarkAGTRGrouping500 measures the parallel pairwise-distance engine
// on a 500-account synthetic campaign (490 legitimate users plus two
// default attackers with 5 accounts each): ~125k account pairs, each
// costing two DTW evaluations. The procs=1 case is the sequential path;
// higher procs fan the pair pass out across workers with per-worker DTW
// buffers, each unioning its sub-threshold pairs into one shared
// union-find. The first iteration of each case cross-checks that the
// partitions are byte-identical regardless of parallelism.
func BenchmarkAGTRGrouping500(b *testing.B) {
	sc, err := simulate.Build(simulate.Config{Seed: 11, NumLegit: 490, SybilActiveness: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	if n := sc.Dataset.NumAccounts(); n < 500 {
		b.Fatalf("campaign has %d accounts, want >= 500", n)
	}
	grouper := grouping.AGTR{Phi: 0.3}
	var baseline grouping.Grouping
	var baselineSet bool
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := grouper.Group(sc.Dataset)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					if !baselineSet {
						baseline, baselineSet = g, true
					} else if !reflect.DeepEqual(baseline, g) {
						b.Fatalf("procs=%d partition differs from sequential baseline", procs)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkThresholdGroupingSweep times the two threshold groupers, AG-TR
// (φ = 0.3) and AG-TS (ρ = 1), on campaigns of 500, 2,000 and 8,000
// accounts: legitimate users plus the two default attackers with 5 accounts
// each, Sybil activeness 0.8, simulate seed 11. Each campaign is built
// before its timers start; the 8,000-account build alone takes seconds, so
// -short skips that size. Besides ns/op (series or bitsets, pair pass and
// components), each case reports pairpass-ms, the pair pass alone as the
// grouper's own timer measures it; AG-TR also reports bound-pruned-%, the
// share of pairs its endpoint bound rejects before any DTW.
func BenchmarkThresholdGroupingSweep(b *testing.B) {
	reg := obs.Default()
	groupers := []struct {
		g     grouping.Grouper
		timer string
	}{
		{grouping.AGTR{Phi: 0.3}, "grouping.agtr.distance_matrix_seconds"},
		{grouping.AGTS{Rho: 1}, "grouping.agts.affinity_matrix_seconds"},
	}
	for _, accounts := range []int{500, 2000, 8000} {
		var sc *simulate.Scenario
		for _, gr := range groupers {
			b.Run(fmt.Sprintf("%s/accounts=%d", gr.g.Name(), accounts), func(b *testing.B) {
				if accounts > 2000 && testing.Short() {
					b.Skip("8,000-account campaign skipped under -short")
				}
				if sc == nil {
					var err error
					if sc, err = simulate.Build(simulate.Config{Seed: 11, NumLegit: accounts - 10, SybilActiveness: 0.8}); err != nil {
						b.Fatal(err)
					}
				}
				timer := reg.Timer(gr.timer).Histogram()
				pruned := reg.Counter("grouping.agtr.pairs_pruned_bound")
				sum0, pruned0 := timer.Snapshot().Sum, pruned.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := gr.g.Group(sc.Dataset); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric((timer.Snapshot().Sum-sum0)*1e3/float64(b.N), "pairpass-ms")
				if _, ok := gr.g.(grouping.AGTR); ok {
					pairs := float64(accounts) * float64(accounts-1) / 2
					b.ReportMetric(float64(pruned.Value()-pruned0)*100/(pairs*float64(b.N)), "bound-pruned-%")
				}
			})
		}
	}
}

// BenchmarkKeptPass times an AG-TR pass from the pass it kept, as a
// store's td-tr aggregate runs it (platform.KeptPass): with no account
// changed since, when the kept partition is reused, and with 1% of the
// accounts changed, when the whole pair pass runs. Campaigns are those of
// BenchmarkThresholdGroupingSweep (simulate seed 11); the 50,000-account
// one is seven copies of the 8,000-account campaign, each re-IDed and
// shifted by whole days, cut to 50,000 accounts, because simulate.Build
// alone takes about 30 s at 8,000. Each update, made outside the timer,
// changes the accounts and never the time origin: each gets a report on a
// task it has not reported on, a minute after its latest report, or when
// it has reported on every task loses its latest report. Besides ns/op it
// reports ms/update, pairs-tested/update (n(n-1)/2 minus the pairs
// reused) and the kept pass's bytes. The first update of each case is
// checked against a full pass, so a wrong partition fails the benchmark.
// -short runs 2,000 accounts only.
func BenchmarkKeptPass(b *testing.B) {
	ctx := context.Background()
	g := grouping.AGTR{Phi: 0.3}
	reused := obs.Default().Counter("grouping.agtr.pairs_reused")
	var (
		base     *mcs.Dataset // the 8,000-account campaign, once built
		campaign func(b *testing.B, accounts int) *mcs.Dataset
	)
	campaign = func(b *testing.B, accounts int) *mcs.Dataset {
		if accounts <= 8000 {
			if accounts == 8000 && base != nil {
				return base
			}
			sc, err := simulate.Build(simulate.Config{Seed: 11, NumLegit: accounts - 10, SybilActiveness: 0.8})
			if err != nil {
				b.Fatal(err)
			}
			if accounts == 8000 {
				base = sc.Dataset
			}
			return sc.Dataset
		}
		src := campaign(b, 8000)
		ds := &mcs.Dataset{Tasks: src.Tasks}
		for c := 0; len(ds.Accounts) < accounts; c++ {
			for _, a := range src.Accounts[:min(len(src.Accounts), accounts-len(ds.Accounts))] {
				cp := mcs.Account{ID: fmt.Sprintf("c%d-%s", c, a.ID), Fingerprint: a.Fingerprint}
				for _, o := range a.Observations {
					o.Time = o.Time.Add(time.Duration(c) * 24 * time.Hour)
					cp.Observations = append(cp.Observations, o)
				}
				ds.Accounts = append(ds.Accounts, cp)
			}
		}
		return ds
	}
	sizes := []int{2000, 8000, 50000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, accounts := range sizes {
		pristine := campaign(b, accounts)
		origin, _, _ := pristine.TimeSpan()
		var first *grouping.Pass // the pass over the pristine campaign
		for _, percent := range []int{0, 1} {
			b.Run(fmt.Sprintf("accounts=%d/changed=%d%%", accounts, percent), func(b *testing.B) {
				ds := &mcs.Dataset{Tasks: pristine.Tasks, Accounts: make([]mcs.Account, len(pristine.Accounts))}
				for i, a := range pristine.Accounts {
					a.Observations = append([]mcs.Observation(nil), a.Observations...)
					ds.Accounts[i] = a
				}
				if first == nil {
					var err error
					if _, first, err = g.GroupPass(ctx, ds, nil); err != nil {
						b.Fatal(err)
					}
				}
				kept := first
				pairs := int64(accounts) * int64(accounts-1) / 2
				rng := rand.New(rand.NewSource(1))
				var tested int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					changed := 0
					for _, ai := range rng.Perm(accounts) {
						if changed == accounts*percent/100 {
							break
						}
						a := &ds.Accounts[ai]
						if len(a.Observations) == 0 {
							continue
						}
						last := 0
						for k, o := range a.Observations {
							if o.Time.After(a.Observations[last].Time) {
								last = k
							}
						}
						latest := a.Observations[last]
						if !latest.Time.After(origin) {
							continue
						}
						// Report on a task not yet reported, a minute after
						// the latest report, or else drop the latest one.
						seen := a.TaskSet()
						task := 0
						for task < len(ds.Tasks) && seen[task] {
							task++
						}
						if task < len(ds.Tasks) {
							a.Observations = append(a.Observations, mcs.Observation{Task: task, Value: latest.Value, Time: latest.Time.Add(time.Minute)})
						} else {
							a.Observations = append(a.Observations[:last], a.Observations[last+1:]...)
						}
						changed++
					}
					r0 := reused.Value()
					b.StartTimer()
					got, pass, err := g.GroupPass(ctx, ds, kept)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					tested += pairs - (reused.Value() - r0)
					if i == 0 {
						full, err := g.Group(ds)
						if err != nil {
							b.Fatal(err)
						}
						if !reflect.DeepEqual(got, full) {
							b.Fatalf("partition from the kept pass differs from a full pass (%d vs %d groups)", got.NumGroups(), full.NumGroups())
						}
					}
					kept = pass
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/update")
				b.ReportMetric(float64(tested)/float64(b.N), "pairs-tested/update")
				b.ReportMetric(float64(kept.Bytes()), "kept-bytes")
			})
		}
	}
}

// BenchmarkEndToEndCampaign measures the full pipeline: scenario build,
// grouping, and framework aggregation.
func BenchmarkEndToEndCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := simulate.Build(simulate.Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		fw := core.Framework{Grouper: grouping.AGTR{Phi: 0.3}}
		if _, err := fw.Run(sc.Dataset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRHScaling measures CRH iteration cost as the campaign grows.
func BenchmarkCRHScaling(b *testing.B) {
	for _, users := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			sc, err := simulate.Build(simulate.Config{
				Seed:     9,
				NumLegit: users,
				NumTasks: 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (truth.CRH{}).Run(sc.Dataset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtAlgorithms regenerates the extension algorithm-family
// comparison (see EXPERIMENTS.md).
func BenchmarkExtAlgorithms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtAlgorithms(13, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-algorithms", r.Tables())
		}
	}
}

// BenchmarkExtStrategies regenerates the attacker-strategy extension.
func BenchmarkExtStrategies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtStrategies(13, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-strategies", r.Tables())
		}
	}
}

func BenchmarkFig5POIMap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig5(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "fig5", r.Tables())
		}
	}
}

// BenchmarkExtScale regenerates the large-scale attack extension.
func BenchmarkExtScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtScale(13, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-scale", r.Tables())
		}
	}
}

// BenchmarkExtSelection regenerates the incentive-selection extension.
func BenchmarkExtSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtSelection(13, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-selection", r.Tables())
		}
	}
}

// BenchmarkExtThresholds regenerates the threshold-sensitivity extension.
func BenchmarkExtThresholds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtThresholds(13, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-thresholds", r.Tables())
		}
	}
}

// BenchmarkExtEvolving regenerates the evolving-truth extension.
func BenchmarkExtEvolving(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtEvolving(12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, "ext-evolving", r.Tables())
		}
	}
}
