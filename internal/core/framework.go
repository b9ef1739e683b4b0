// Package core implements the paper's primary contribution: the
// Sybil-resistant truth discovery framework of Algorithm 2. The framework
// first partitions accounts with a pluggable account grouping method
// (internal/grouping), collapses each group's data to a single value per
// task, and then runs the iterative weight/truth estimation loop of
// internal/truth (truth.Loop) with groups as its sources, so that a Sybil
// attacker's many accounts count as one voice no matter how many accounts
// it creates.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/signal"
	"sybiltd/internal/truth"
)

// Aggregator selects how the data submitted by one group for one task is
// collapsed into the group's single value d̃ (the role of Eq. 3).
//
// Eq. (3) as printed is degenerate — its denominator Σ(d−mean) is
// identically zero — so the framework exposes the three defensible
// readings and defaults to the one matching the paper's prose ("the
// aggregated data for the group will be close to the average of the data
// submitted", §V-B). See DESIGN.md for the erratum discussion.
type Aggregator int

const (
	// AggregateMean collapses a group's data to its arithmetic mean
	// (default; matches the paper's prose).
	AggregateMean Aggregator = iota + 1
	// AggregateMedian collapses to the median, trading a little bias for
	// robustness when a group mixes honest and fabricated values.
	AggregateMedian
	// AggregateInverseDeviation weights each value by 1/(|d − mean| + ε),
	// the most plausible literal reading of the printed Eq. (3): values
	// near the group consensus dominate.
	AggregateInverseDeviation
	// AggregateMajority collapses to the most frequent value (ties to the
	// smallest). Use it for categorical campaigns, where interpolating
	// between labels is meaningless.
	AggregateMajority
)

// String returns a short label for benches and tables.
func (a Aggregator) String() string {
	switch a {
	case AggregateMean:
		return "mean"
	case AggregateMedian:
		return "median"
	case AggregateInverseDeviation:
		return "invdev"
	case AggregateMajority:
		return "majority"
	default:
		return fmt.Sprintf("Aggregator(%d)", int(a))
	}
}

// Config tunes the framework's iterative loop.
type Config struct {
	// Aggregator is the Eq. (3) strategy; zero means AggregateMean.
	Aggregator Aggregator
	// MaxIterations caps the group-level estimation loop. Zero means 100.
	MaxIterations int
	// Tolerance stops the loop when the largest truth update falls below
	// it. Zero means 1e-6.
	Tolerance float64
	// LossFloor floors per-group losses in the CRH-style weight update.
	// Zero means 1e-9.
	LossFloor float64
	// Observer, when non-nil, receives per-stage span callbacks
	// (grouping, group_aggregation, truth_loop) and one Iteration
	// callback per truth-loop round with its convergence delta. Stage
	// timings are always recorded into the process metrics registry
	// (obs.Default()) regardless.
	Observer obs.Observer
	// GroupTimeout bounds the account-grouping stage when the framework
	// runs under a context (RunContext): the stage gets a child context
	// with this timeout, so a slow O(n²) grouping pass degrades to
	// per-account truth discovery instead of eating the whole request
	// deadline. Zero means no extra bound beyond the caller's context.
	GroupTimeout time.Duration
	// DegradeOnGroupingFailure extends graceful degradation to *any*
	// grouping error, not just context cancellation: instead of failing
	// the whole aggregation, the framework falls back to per-account
	// (ungrouped) truth discovery and flags the result as degraded. A
	// serving platform wants this (an answer beats an error mid-campaign);
	// offline experiments keep the default fail-loud behavior.
	DegradeOnGroupingFailure bool
}

func (c Config) withDefaults() Config {
	if c.Aggregator == 0 {
		c.Aggregator = AggregateMean
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 100
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-6
	}
	if c.LossFloor == 0 {
		c.LossFloor = 1e-9
	}
	return c
}

// Framework is the Sybil-resistant truth discovery framework: an account
// grouping method paired with a group-level truth discovery loop
// (Algorithm 2). It implements truth.Algorithm, so it is interchangeable
// with CRH and the baselines everywhere.
type Framework struct {
	// Grouper is the account grouping method (AG step). Required.
	Grouper grouping.Grouper
	// Config tunes aggregation and iteration.
	Config Config
}

// ErrNoGrouper is returned when Run is called without a Grouper.
var ErrNoGrouper = errors.New("core: framework requires a Grouper")

// Name implements truth.Algorithm: "TD-FP" for the AG-FP grouper, etc.,
// following the paper's naming in §V-C.
func (f Framework) Name() string {
	if f.Grouper == nil {
		return "TD-?"
	}
	name := f.Grouper.Name()
	if len(name) > 3 && name[:3] == "AG-" {
		return "TD-" + name[3:]
	}
	return "TD[" + name + "]"
}

// Run implements truth.Algorithm.
func (f Framework) Run(ds *mcs.Dataset) (truth.Result, error) {
	res, _, err := f.RunDetailed(ds)
	return res, err
}

// RunContext implements truth.ContextAlgorithm: Run under a cancellation
// context, with graceful degradation. When the account-grouping stage is
// cancelled (the caller's deadline, or Config.GroupTimeout) — or fails
// outright and Config.DegradeOnGroupingFailure is set — the framework
// does not error: it falls back to per-account (ungrouped) truth
// discovery and flags the result as Degraded, so an overloaded platform
// still answers every campaign. Cancellation mid truth-loop stops the
// iteration early with the current estimates, likewise flagged.
func (f Framework) RunContext(ctx context.Context, ds *mcs.Dataset) (truth.Result, error) {
	res, _, err := f.RunDetailedContext(ctx, ds)
	return res, err
}

// RunDetailed is Run plus the account grouping it used, for diagnostics
// and the experiment harness.
func (f Framework) RunDetailed(ds *mcs.Dataset) (truth.Result, grouping.Grouping, error) {
	return f.RunDetailedContext(context.Background(), ds)
}

// degradeReason classifies a grouping failure: context errors always
// degrade (the deadline fired), other errors degrade only when the config
// opts in.
func degradeReason(err error, cfg Config) (string, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "grouping_timeout", true
	case errors.Is(err, context.Canceled):
		return "grouping_cancelled", true
	case cfg.DegradeOnGroupingFailure:
		return "grouping_failed", true
	default:
		return "", false
	}
}

// RunDetailedContext is RunContext plus the account grouping it used.
// When the result is degraded the returned grouping is the per-account
// fallback actually used, not the partition the grouper failed to
// produce.
func (f Framework) RunDetailedContext(ctx context.Context, ds *mcs.Dataset) (truth.Result, grouping.Grouping, error) {
	if f.Grouper == nil {
		return truth.Result{}, grouping.Grouping{}, ErrNoGrouper
	}
	if ds == nil {
		return truth.Result{}, grouping.Grouping{}, truth.ErrNilDataset
	}
	if err := ds.Validate(); err != nil {
		return truth.Result{}, grouping.Grouping{}, fmt.Errorf("core: %w", err)
	}
	cfg := f.Config.withDefaults()
	tr := obs.Tracer{Registry: obs.Default(), Observer: cfg.Observer, Prefix: "framework."}
	obs.Default().Counter("framework.runs").Inc()

	// Account grouping (Algorithm 2 line 1), bounded by the caller's
	// context and optionally by GroupTimeout.
	gctx := ctx
	if cfg.GroupTimeout > 0 {
		var cancel context.CancelFunc
		gctx, cancel = context.WithTimeout(ctx, cfg.GroupTimeout)
		defer cancel()
	}
	degraded := false
	degradedReason := ""
	span := tr.Span("grouping")
	g, err := grouping.GroupWithContext(gctx, f.Grouper, ds)
	span.End()
	if err == nil {
		if verr := g.Validate(ds.NumAccounts()); verr != nil {
			err = fmt.Errorf("grouper %s returned invalid partition: %w", f.Grouper.Name(), verr)
		}
	}
	if err != nil {
		reason, ok := degradeReason(err, cfg)
		if !ok {
			return truth.Result{}, grouping.Grouping{}, fmt.Errorf("core: account grouping: %w", err)
		}
		// Graceful degradation: every account becomes its own group, so
		// the loop below reduces to plain per-account truth discovery.
		// Weaker against Sybils, but the campaign still gets an answer.
		degraded, degradedReason = true, reason
		g = grouping.Singletons(ds.NumAccounts())
		obs.Default().Counter("framework.degraded").Inc()
		obs.Default().Counter("framework.degraded." + reason).Inc()
	}

	m := ds.NumTasks()

	// Data grouping (lines 2-6): for each task, collapse each group's
	// values to one aggregate (Eq. 3 strategy) and compute the initial
	// anti-Sybil weight of Eq. (4).
	span = tr.Span("group_aggregation")
	claims, initWeights, err := groupData(ds, g, cfg.Aggregator)
	span.End()
	if err != nil {
		return truth.Result{}, grouping.Grouping{}, err
	}
	// Truth initialization (Eq. 5).
	truths := startTruths(claims, initWeights, m)
	// Per-task scale normalizers over group aggregates, as CRH does over
	// raw values.
	norm := truth.StdNormalizer(truth.TaskValues(claims, m))

	// Iterative group weight / truth estimation (lines 8-15). Cancellation
	// between rounds hands back the current estimates, flagged degraded,
	// instead of blocking past the caller's deadline.
	span = tr.Span("truth_loop")
	weights := make([]float64, len(claims))
	iter, converged, err := truth.Loop{
		Sources:       claims,
		Norm:          norm,
		Rule:          truth.LogRatio(cfg.LossFloor, false),
		MaxIterations: cfg.MaxIterations,
		Tolerance:     cfg.Tolerance,
		OnRound:       func(round int, delta float64) { tr.Iteration("truth_loop", round, delta) },
	}.Run(ctx, truths, weights)
	span.End()
	if err != nil && !degraded {
		degraded, degradedReason = true, "truth_loop_cancelled"
		obs.Default().Counter("framework.degraded").Inc()
		obs.Default().Counter("framework.degraded.truth_loop_cancelled").Inc()
	}
	obs.Default().Histogram("framework.iterations").Observe(float64(iter))
	if converged {
		obs.Default().Counter("framework.converged").Inc()
	}

	// Expose per-account weights: each account inherits its group weight.
	acctWeights := make([]float64, ds.NumAccounts())
	for k, members := range g.Groups {
		for _, a := range members {
			acctWeights[a] = weights[k]
		}
	}
	return truth.Result{
		Truths:         truths,
		Weights:        acctWeights,
		Iterations:     iter,
		Converged:      converged,
		Degraded:       degraded,
		DegradedReason: degradedReason,
	}, g, nil
}

// groupData collapses per-account observations into one claim per group
// and task — the group's aggregate, in task order — and the Eq. (4)
// initial weight of each claim, 1 − |g_k|/|U_j| clamped at 0 (|g_k| is
// the full group size per the paper; a group larger than a task's
// submitter set is maximally suspicious for that task).
func groupData(ds *mcs.Dataset, g grouping.Grouping, agg Aggregator) (claims [][]truth.Claim, initWeights [][]float64, err error) {
	submitters := make([]int, ds.NumTasks())
	total := 0
	for ai := range ds.Accounts {
		for _, o := range ds.Accounts[ai].Observations {
			submitters[o.Task]++
		}
		total += len(ds.Accounts[ai].Observations)
	}
	// A group has at most one claim per observation of its members.
	flatClaims := make([]truth.Claim, 0, total)
	flatWeights := make([]float64, 0, total)
	claims = make([][]truth.Claim, g.NumGroups())
	initWeights = make([][]float64, g.NumGroups())
	perTask := make([][]float64, ds.NumTasks())
	var tasks []int
	for k, members := range g.Groups {
		// Collect members' values per task.
		tasks = tasks[:0]
		for _, a := range members {
			for _, o := range ds.Accounts[a].Observations {
				if len(perTask[o.Task]) == 0 {
					tasks = append(tasks, o.Task)
				}
				perTask[o.Task] = append(perTask[o.Task], o.Value)
			}
		}
		slices.Sort(tasks)
		start := len(flatClaims)
		for _, j := range tasks {
			v, aggErr := aggregate(perTask[j], agg)
			if aggErr != nil {
				return nil, nil, fmt.Errorf("core: group %d task %d: %w", k, j, aggErr)
			}
			perTask[j] = perTask[j][:0]
			flatClaims = append(flatClaims, truth.Claim{Task: j, Value: v, Scale: 1})
			flatWeights = append(flatWeights, max(1-float64(len(members))/float64(submitters[j]), 0))
		}
		claims[k], initWeights[k] = flatClaims[start:], flatWeights[start:]
	}
	return claims, initWeights, nil
}

// startTruths is the truth initialization of Eq. (5): each task's mean of
// group aggregates weighted by their Eq. (4) weights, NaN when no group
// reported. When every weight is clamped to zero (e.g. one group covers
// all submitters) it falls back to the plain average of group aggregates,
// which is still Sybil-diminished.
func startTruths(claims [][]truth.Claim, initWeights [][]float64, m int) []float64 {
	num := make([]float64, m)
	den := make([]float64, m)
	sum := make([]float64, m)
	count := make([]int, m)
	for k, groupClaims := range claims {
		for c, cl := range groupClaims {
			w := initWeights[k][c]
			num[cl.Task] += float64(w * cl.Value)
			den[cl.Task] += w
			sum[cl.Task] += cl.Value
			count[cl.Task]++
		}
	}
	truths := make([]float64, m)
	for j := range truths {
		switch {
		case count[j] == 0:
			truths[j] = math.NaN()
		case den[j] == 0:
			truths[j] = sum[j] / float64(count[j])
		default:
			truths[j] = num[j] / den[j]
		}
	}
	return truths
}

// aggregate collapses one group's values for one task.
func aggregate(vals []float64, agg Aggregator) (float64, error) {
	if len(vals) == 0 {
		return 0, errors.New("core: empty value set")
	}
	switch agg {
	case AggregateMajority:
		return majorityValue(vals), nil
	case AggregateMedian:
		return signal.Median(vals)
	case AggregateInverseDeviation:
		const eps = 1e-6
		mean := signal.Mean(vals)
		var num, den float64
		for _, v := range vals {
			w := 1 / (math.Abs(v-mean) + eps)
			num += float64(w * v)
			den += w
		}
		return num / den, nil
	default: // AggregateMean
		return signal.Mean(vals), nil
	}
}

// majorityValue returns the most frequent value, breaking ties toward the
// smallest.
func majorityValue(vals []float64) float64 {
	counts := make(map[float64]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	best := vals[0]
	bestCount := 0
	for v, c := range counts {
		if c > bestCount || (c == bestCount && v < best) {
			best = v
			bestCount = c
		}
	}
	return best
}

var (
	_ truth.Algorithm        = Framework{}
	_ truth.ContextAlgorithm = Framework{}
)
