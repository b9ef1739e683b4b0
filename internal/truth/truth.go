// Package truth implements the truth-discovery substrate of the paper's
// §III-B: the general iterative weight-estimation / truth-estimation loop
// of Algorithm 1 as one Loop, with CRH (Li et al., SIGMOD 2014) as the
// representative instance. CATD, GTM, the streaming Online estimator and
// the framework of internal/core run the same Loop and differ only in
// their weight rule and starting truths. Naive mean and median
// aggregation baselines complete the set.
//
// All algorithms consume an mcs.Dataset and produce a Result with one
// estimated truth per task. Tasks nobody reported on get NaN truths; the
// caller decides what that means (the experiment harness excludes them
// from MAE).
package truth

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/signal"
)

// Result is the output of a truth-discovery run.
type Result struct {
	// Truths[j] is the estimated truth for task j; NaN when no account
	// reported on the task.
	Truths []float64
	// Weights[i] is the final reliability weight of account i. Baselines
	// that do not estimate weights return uniform weights.
	Weights []float64
	// Iterations is the number of estimation rounds performed.
	Iterations int
	// Converged reports whether the loop met its tolerance before hitting
	// the iteration cap.
	Converged bool
	// Degraded reports that the algorithm could not run at full fidelity
	// and fell back to a weaker mode — e.g. the Sybil-resistant framework
	// ran per-account (ungrouped) truth discovery because account grouping
	// was cancelled by a deadline. The estimates are still usable; they
	// just lack the degraded stage's protection.
	Degraded bool
	// DegradedReason is a short machine-readable reason ("grouping_timeout",
	// "grouping_failed", "truth_loop_cancelled"); empty when !Degraded.
	DegradedReason string
}

// Algorithm is a data aggregation algorithm for MCS campaigns.
type Algorithm interface {
	// Name returns a short identifier such as "CRH".
	Name() string
	// Run aggregates the dataset into per-task truth estimates.
	Run(ds *mcs.Dataset) (Result, error)
}

// ContextAlgorithm is an Algorithm that honors a cancellation context:
// long stages stop early and, where the algorithm defines one, a graceful
// degradation path produces estimates instead of an error (see
// Result.Degraded).
type ContextAlgorithm interface {
	Algorithm
	// RunContext is Run under a cancellation context.
	RunContext(ctx context.Context, ds *mcs.Dataset) (Result, error)
}

// RunWithContext runs alg under ctx when it supports cancellation, and
// falls back to the plain blocking Run otherwise (checking ctx once up
// front so an already-expired deadline still refuses promptly).
func RunWithContext(ctx context.Context, alg Algorithm, ds *mcs.Dataset) (Result, error) {
	if ca, ok := alg.(ContextAlgorithm); ok {
		return ca.RunContext(ctx, ds)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return alg.Run(ds)
}

// ErrNilDataset is returned when Run receives a nil dataset.
var ErrNilDataset = errors.New("truth: nil dataset")

// validate performs the checks shared by all algorithms.
func validate(ds *mcs.Dataset) error {
	if ds == nil {
		return ErrNilDataset
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("truth: %w", err)
	}
	return nil
}

// Mean is the unweighted-average baseline: the truth of each task is the
// arithmetic mean of the values reported for it.
type Mean struct{}

// Name implements Algorithm.
func (Mean) Name() string { return "Mean" }

// Run implements Algorithm.
func (Mean) Run(ds *mcs.Dataset) (Result, error) {
	if err := validate(ds); err != nil {
		return Result{}, err
	}
	truths := make([]float64, ds.NumTasks())
	for j, vals := range TaskValues(accountClaims(ds), ds.NumTasks()) {
		if len(vals) == 0 {
			truths[j] = math.NaN()
			continue
		}
		truths[j] = signal.Mean(vals)
	}
	return Result{Truths: truths, Weights: uniformWeights(ds.NumAccounts()), Iterations: 1, Converged: true}, nil
}

// Median is the robust baseline: the truth of each task is the median of
// the values reported for it.
type Median struct{}

// Name implements Algorithm.
func (Median) Name() string { return "Median" }

// Run implements Algorithm.
func (Median) Run(ds *mcs.Dataset) (Result, error) {
	if err := validate(ds); err != nil {
		return Result{}, err
	}
	// The per-task medians are exactly where the iterative algorithms
	// start.
	_, _, truths := loopInputs(ds)
	return Result{Truths: truths, Weights: uniformWeights(ds.NumAccounts()), Iterations: 1, Converged: true}, nil
}

// observeLoop records one iterative algorithm run into the process
// metrics registry: run count, iteration-count histogram, and how often
// the loop converged before its cap. alg is a short lowercase label
// ("crh", "catd", "gtm").
func observeLoop(alg string, iterations int, converged bool) {
	reg := obs.Default()
	reg.Counter("truth." + alg + ".runs").Inc()
	reg.Histogram("truth." + alg + ".iterations").Observe(float64(iterations))
	if converged {
		reg.Counter("truth." + alg + ".converged").Inc()
	}
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

var (
	_ Algorithm = Mean{}
	_ Algorithm = Median{}
)
