package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/truth"
)

// slowGrouper blocks until its context is cancelled — a stand-in for an
// O(n²) grouping pass that cannot finish inside the deadline.
type slowGrouper struct{}

func (slowGrouper) Name() string { return "AG-Slow" }
func (g slowGrouper) Group(ds *mcs.Dataset) (grouping.Grouping, error) {
	return g.GroupContext(context.Background(), ds)
}
func (slowGrouper) GroupContext(ctx context.Context, ds *mcs.Dataset) (grouping.Grouping, error) {
	<-ctx.Done()
	return grouping.Grouping{}, ctx.Err()
}

// failingGrouper errors immediately without touching the context.
type failingGrouper struct{}

func (failingGrouper) Name() string { return "AG-Fail" }
func (failingGrouper) Group(*mcs.Dataset) (grouping.Grouping, error) {
	return grouping.Grouping{}, errors.New("grouping exploded")
}

func TestGroupTimeoutDegradesToPerAccount(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	fw := Framework{
		Grouper: slowGrouper{},
		Config:  Config{GroupTimeout: 10 * time.Millisecond},
	}
	start := time.Now()
	res, g, err := fw.RunDetailedContext(context.Background(), ds)
	if err != nil {
		t.Fatalf("degradation must answer, not error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("GroupTimeout not enforced: took %v", elapsed)
	}
	if !res.Degraded || res.DegradedReason != "grouping_timeout" {
		t.Fatalf("Degraded=%v reason=%q, want degraded with grouping_timeout", res.Degraded, res.DegradedReason)
	}
	// The fallback partition is per-account: truth discovery still ran.
	if g.NumGroups() != ds.NumAccounts() {
		t.Fatalf("fallback groups = %d, want one per account (%d)", g.NumGroups(), ds.NumAccounts())
	}
	if len(res.Truths) != ds.NumTasks() {
		t.Fatalf("truths = %d, want %d", len(res.Truths), ds.NumTasks())
	}
	for j, v := range res.Truths {
		if v != v {
			t.Fatalf("task %d has no estimate despite data", j)
		}
	}
}

func TestCallerCancellationDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fw := Framework{Grouper: slowGrouper{}}
	res, err := fw.RunContext(ctx, truth.PaperExampleHonest())
	if err != nil {
		t.Fatalf("cancelled grouping must degrade, not error: %v", err)
	}
	if !res.Degraded || res.DegradedReason != "grouping_cancelled" {
		t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
}

func TestGroupingFailureDegradesOnlyWhenOptedIn(t *testing.T) {
	ds := truth.PaperExampleHonest()

	// Default: fail loud, exactly as before this feature existed.
	fw := Framework{Grouper: failingGrouper{}}
	if _, err := fw.RunContext(context.Background(), ds); err == nil {
		t.Fatal("grouping failure without opt-in must propagate")
	}

	// Opted in (the serving platform's posture): degrade instead.
	fw.Config.DegradeOnGroupingFailure = true
	res, err := fw.RunContext(context.Background(), ds)
	if err != nil {
		t.Fatalf("opted-in degradation must answer: %v", err)
	}
	if !res.Degraded || res.DegradedReason != "grouping_failed" {
		t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
}

func TestHealthyRunIsNotDegraded(t *testing.T) {
	fw := Framework{Grouper: grouping.AGTS{}}
	res, err := fw.RunContext(context.Background(), truth.PaperExampleWithSybil())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.DegradedReason != "" {
		t.Fatalf("healthy run flagged degraded: %+v", res)
	}
}

func TestDegradedResultMatchesSingletonFramework(t *testing.T) {
	// The degraded answer must be exactly what the framework produces with
	// an explicit per-account partition — not some third behavior.
	ds := truth.PaperExampleWithSybil()
	degraded, err := Framework{
		Grouper: slowGrouper{},
		Config:  Config{GroupTimeout: 5 * time.Millisecond},
	}.RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Framework{Grouper: singletonGrouper{n: ds.NumAccounts()}}.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := range explicit.Truths {
		if degraded.Truths[j] != explicit.Truths[j] {
			t.Fatalf("task %d: degraded %v != singleton %v", j, degraded.Truths[j], explicit.Truths[j])
		}
	}
}

// singletonGrouper is the explicit per-account partition.
type singletonGrouper struct{ n int }

func (singletonGrouper) Name() string { return "AG-Singleton" }
func (g singletonGrouper) Group(*mcs.Dataset) (grouping.Grouping, error) {
	return grouping.Singletons(g.n), nil
}

// cancelAtRound cancels its context from the Iteration callback of the
// given truth-loop round.
type cancelAtRound struct {
	round  int
	cancel context.CancelFunc
}

func (cancelAtRound) SpanStart(string)              {}
func (cancelAtRound) SpanEnd(string, time.Duration) {}
func (o cancelAtRound) Iteration(_ string, iter int, _ float64) {
	if iter == o.round {
		o.cancel()
	}
}

// TestTruthLoopCancellationDegrades: a context cancelled during round 2
// stops the truth loop before round 3; the run answers with the estimates
// of two full rounds — exactly what a two-round cap produces — flagged
// truth_loop_cancelled.
func TestTruthLoopCancellationDegrades(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	oracle := oracleGrouper{groups: [][]int{{0}, {1}, {2}, {3, 4, 5}}}

	full, err := Framework{Grouper: oracle}.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations <= 2 {
		t.Fatalf("uncancelled run took %d rounds; the test needs more than 2", full.Iterations)
	}
	twoRounds, err := Framework{Grouper: oracle, Config: Config{MaxIterations: 2}}.Run(ds)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fw := Framework{Grouper: oracle, Config: Config{Observer: cancelAtRound{round: 2, cancel: cancel}}}
	res, err := fw.RunContext(ctx, ds)
	if err != nil {
		t.Fatalf("truth-loop cancellation must degrade, not error: %v", err)
	}
	if res.Iterations != 2 || res.Converged {
		t.Errorf("iterations = %d converged = %v, want 2 rounds, not converged", res.Iterations, res.Converged)
	}
	if !res.Degraded || res.DegradedReason != "truth_loop_cancelled" {
		t.Errorf("Degraded=%v reason=%q, want truth_loop_cancelled", res.Degraded, res.DegradedReason)
	}
	for j := range res.Truths {
		if math.Float64bits(res.Truths[j]) != math.Float64bits(twoRounds.Truths[j]) {
			t.Errorf("task %d: cancelled %v, two-round cap %v", j, res.Truths[j], twoRounds.Truths[j])
		}
	}
	for i := range res.Weights {
		if math.Float64bits(res.Weights[i]) != math.Float64bits(twoRounds.Weights[i]) {
			t.Errorf("account %d: cancelled weight %v, two-round cap %v", i, res.Weights[i], twoRounds.Weights[i])
		}
	}
}
