package core

import (
	"math"
	"testing"
	"time"

	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/truth"
)

// oracleGrouper returns a fixed partition (perfect grouping oracle).
type oracleGrouper struct {
	groups [][]int
}

func (oracleGrouper) Name() string { return "AG-Oracle" }
func (o oracleGrouper) Group(*mcs.Dataset) (grouping.Grouping, error) {
	return grouping.Grouping{Groups: o.groups}, nil
}

func TestFrameworkName(t *testing.T) {
	if got := (Framework{Grouper: grouping.AGFP{}}).Name(); got != "TD-FP" {
		t.Errorf("name = %q, want TD-FP", got)
	}
	if got := (Framework{Grouper: grouping.AGTR{}}).Name(); got != "TD-TR" {
		t.Errorf("name = %q, want TD-TR", got)
	}
	if got := (Framework{Grouper: oracleGrouper{}}).Name(); got != "TD-Oracle" {
		t.Errorf("name = %q", got)
	}
	if got := (Framework{}).Name(); got != "TD-?" {
		t.Errorf("name = %q", got)
	}
}

func TestFrameworkRequiresGrouper(t *testing.T) {
	if _, err := (Framework{}).Run(truth.PaperExampleHonest()); err == nil {
		t.Error("missing grouper should error")
	}
	if _, err := (Framework{Grouper: grouping.AGTS{}}).Run(nil); err == nil {
		t.Error("nil dataset should error")
	}
}

func TestFrameworkDefeatsTableISybilAttack(t *testing.T) {
	// The heart of the paper: under the Table I attack, plain CRH swings
	// T1/T3/T4 toward -50, but the framework with a grouping method that
	// isolates the Sybil accounts stays near the honest estimates.
	ds := truth.PaperExampleWithSybil()
	honest, err := truth.CRH{}.Run(truth.PaperExampleHonest())
	if err != nil {
		t.Fatal(err)
	}
	attacked, err := truth.CRH{}.Run(ds)
	if err != nil {
		t.Fatal(err)
	}

	fw := Framework{Grouper: grouping.AGTR{Mode: grouping.TRAbsolute}}
	defended, g, err := fw.RunDetailed(ds)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 4 {
		t.Fatalf("grouping = %v, want Sybils isolated", g.Groups)
	}

	for _, j := range []int{0, 2, 3} {
		crhErr := math.Abs(attacked.Truths[j] - honest.Truths[j])
		fwErr := math.Abs(defended.Truths[j] - honest.Truths[j])
		if fwErr >= crhErr {
			t.Errorf("T%d: framework error %.2f not better than CRH %.2f", j+1, fwErr, crhErr)
		}
		// The framework estimate must stay much closer to the honest value
		// than to the fabricated -50.
		if math.Abs(defended.Truths[j]-(-50)) < math.Abs(defended.Truths[j]-honest.Truths[j]) {
			t.Errorf("T%d = %.2f: closer to the fabrication than to the honest truth", j+1, defended.Truths[j])
		}
	}
}

func TestFrameworkWithSingletonsBehavesLikeTruthDiscovery(t *testing.T) {
	// With every account alone, group aggregates equal raw values and the
	// framework reduces to a CRH-style loop; it should land close to CRH
	// on honest data.
	ds := truth.PaperExampleHonest()
	fw := Framework{Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}}}}
	got, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	crh, err := truth.CRH{}.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got.Truths {
		if math.Abs(got.Truths[j]-crh.Truths[j]) > 5 {
			t.Errorf("T%d: framework %.2f vs CRH %.2f", j+1, got.Truths[j], crh.Truths[j])
		}
	}
}

func TestFrameworkOracleGrouping(t *testing.T) {
	// Perfect grouping: the three Sybil accounts form one group; result
	// must be near the honest CRH estimates.
	ds := truth.PaperExampleWithSybil()
	fw := Framework{Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3, 4, 5}}}}
	res, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := truth.CRH{}.Run(truth.PaperExampleHonest())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2, 3} {
		if math.Abs(res.Truths[j]-honest.Truths[j]) > 12 {
			t.Errorf("T%d = %.2f, honest %.2f: grouping did not protect", j+1, res.Truths[j], honest.Truths[j])
		}
	}
}

// TestFrameworkNegativeMaxIterationsRunsNoRounds: a negative cap runs no
// round of the group-level loop, and Iterations reports 0 — in the result
// and in the framework.iterations histogram.
func TestFrameworkNegativeMaxIterationsRunsNoRounds(t *testing.T) {
	h := obs.Default().Histogram("framework.iterations")
	before := h.Snapshot()
	res, err := Framework{Grouper: grouping.AGTS{}, Config: Config{MaxIterations: -1}}.Run(truth.PaperExampleWithSybil())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.Converged {
		t.Errorf("iterations = %d converged = %v, want 0 rounds, not converged", res.Iterations, res.Converged)
	}
	after := h.Snapshot()
	if after.Count != before.Count+1 || after.Sum != before.Sum {
		t.Errorf("framework.iterations recorded sum %v -> %v over %d -> %d runs, want one run of 0 rounds",
			before.Sum, after.Sum, before.Count, after.Count)
	}
}

func TestAggregators(t *testing.T) {
	vals := []float64{1, 2, 100}
	mean, err := aggregate(vals, AggregateMean)
	if err != nil || math.Abs(mean-103.0/3) > 1e-9 {
		t.Errorf("mean = %v, %v", mean, err)
	}
	med, err := aggregate(vals, AggregateMedian)
	if err != nil || med != 2 {
		t.Errorf("median = %v, %v", med, err)
	}
	inv, err := aggregate(vals, AggregateInverseDeviation)
	if err != nil {
		t.Fatal(err)
	}
	// Inverse-deviation pulls toward values near the mean; it must be
	// finite and within the value range.
	if inv < 1 || inv > 100 || math.IsNaN(inv) {
		t.Errorf("invdev = %v", inv)
	}
	if _, err := aggregate(nil, AggregateMean); err == nil {
		t.Error("empty values should error")
	}
	// Single value: all aggregators return it.
	for _, a := range []Aggregator{AggregateMean, AggregateMedian, AggregateInverseDeviation} {
		v, err := aggregate([]float64{7}, a)
		if err != nil || v != 7 {
			t.Errorf("%s single = %v, %v", a, v, err)
		}
	}
}

func TestAggregatorString(t *testing.T) {
	if AggregateMean.String() != "mean" || AggregateMedian.String() != "median" || AggregateInverseDeviation.String() != "invdev" {
		t.Error("aggregator strings")
	}
	if Aggregator(42).String() == "" {
		t.Error("unknown aggregator should stringify")
	}
}

func TestFrameworkEmptyTask(t *testing.T) {
	ds := mcs.NewDataset(2)
	ds.AddAccount(mcs.Account{ID: "a", Observations: []mcs.Observation{
		{Task: 0, Value: 5, Time: time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)},
	}})
	fw := Framework{Grouper: grouping.AGTS{}}
	res, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Truths[1]) {
		t.Errorf("empty task truth = %v, want NaN", res.Truths[1])
	}
	if res.Truths[0] != 5 {
		t.Errorf("task 0 truth = %v, want 5", res.Truths[0])
	}
}

func TestFrameworkSingleGroupCoversAll(t *testing.T) {
	// One group containing every submitter: Eq. (4) weights are all zero;
	// the fallback must still produce the group aggregate, not NaN.
	ds := mcs.NewDataset(1)
	for i, v := range []float64{2, 4, 6} {
		ds.AddAccount(mcs.Account{ID: string(rune('a' + i)), Observations: []mcs.Observation{
			{Task: 0, Value: v, Time: time.Date(2019, 3, 1, 10, 0, 0, 0, time.UTC)},
		}})
	}
	fw := Framework{Grouper: oracleGrouper{groups: [][]int{{0, 1, 2}}}}
	res, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Truths[0]-4) > 1e-9 {
		t.Errorf("truth = %v, want 4 (group mean)", res.Truths[0])
	}
}

func TestFrameworkInvalidGrouperOutput(t *testing.T) {
	fw := Framework{Grouper: oracleGrouper{groups: [][]int{{0, 0}}}}
	if _, err := fw.Run(truth.PaperExampleHonest()); err == nil {
		t.Error("invalid partition from grouper should error")
	}
}

func TestFrameworkAccountWeightsMirrorGroups(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	fw := Framework{Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3, 4, 5}}}}
	res, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[3] != res.Weights[4] || res.Weights[4] != res.Weights[5] {
		t.Error("accounts of one group must share a weight")
	}
	for i, w := range res.Weights {
		if w < 0 || math.IsNaN(w) {
			t.Errorf("weight[%d] = %v", i, w)
		}
	}
}

func TestFrameworkAllAggregatorsRun(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	for _, a := range []Aggregator{AggregateMean, AggregateMedian, AggregateInverseDeviation} {
		fw := Framework{
			Grouper: grouping.AGTR{Mode: grouping.TRAbsolute},
			Config:  Config{Aggregator: a},
		}
		res, err := fw.Run(ds)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		for j, v := range res.Truths {
			if math.IsNaN(v) {
				t.Errorf("%s: T%d is NaN", a, j+1)
			}
		}
	}
}

func BenchmarkFrameworkPaperExample(b *testing.B) {
	ds := truth.PaperExampleWithSybil()
	fw := Framework{Grouper: grouping.AGTR{Mode: grouping.TRAbsolute}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Run(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAggregateMajority(t *testing.T) {
	v, err := aggregate([]float64{1, 1, 0, 2}, AggregateMajority)
	if err != nil || v != 1 {
		t.Errorf("majority = %v, %v; want 1", v, err)
	}
	// Tie breaks to the smallest value.
	v, err = aggregate([]float64{2, 0}, AggregateMajority)
	if err != nil || v != 0 {
		t.Errorf("majority tie = %v, %v; want 0", v, err)
	}
	if AggregateMajority.String() != "majority" {
		t.Error("string")
	}
}

func TestFrameworkCategoricalCampaign(t *testing.T) {
	// Pothole labels with a Sybil attacker flipping task 0: the framework
	// with oracle grouping and majority aggregation restores the honest
	// label.
	ds := mcs.NewDataset(2)
	mk := func(id string, l0, l1 int, offset time.Duration) {
		base := time.Date(2026, 7, 2, 10, 0, 0, 0, time.UTC).Add(offset)
		ds.AddAccount(mcs.Account{ID: id, Observations: []mcs.Observation{
			{Task: 0, Value: float64(l0), Time: base},
			{Task: 1, Value: float64(l1), Time: base.Add(time.Minute)},
		}})
	}
	mk("a", 1, 0, 0)
	mk("b", 1, 0, 10*time.Minute)
	mk("c", 1, 0, 20*time.Minute)
	for s := 0; s < 5; s++ {
		mk("syb"+string(rune('0'+s)), 0, 0, time.Hour+time.Duration(s)*time.Minute)
	}
	fw := Framework{
		Grouper: oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3, 4, 5, 6, 7}}},
		Config:  Config{Aggregator: AggregateMajority},
	}
	res, err := fw.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truths[0] < 0.5 {
		t.Errorf("T1 = %v, want pulled back to label 1", res.Truths[0])
	}
}
