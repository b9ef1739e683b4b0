package truth

import (
	"context"
	"math"

	"sybiltd/internal/mcs"
	"sybiltd/internal/signal"
)

// Claim is one source's value for one task, as the weight/truth loop sees
// it. Scale multiplies the claim's loss term and its weight in the truth
// step; 1 gives it full influence (Online passes the claim's recency).
type Claim struct {
	Task  int
	Value float64
	Scale float64
}

// WeightRule is the weight-estimation step of Algorithm 1: it sets
// weights[i] from source i's loss — Σ Scale·(d − x)²/norm over its
// claims — and its number of claims.
type WeightRule func(losses []float64, counts []int, weights []float64)

// Loop is the paper's Algorithm 1, shared by CRH, CATD, GTM, Online and
// the framework's group stage (Algorithm 2 lines 8–15): each round weighs
// every source by its loss against the current truths, then moves every
// task's truth to the weighted mean of its claims, until the largest move
// falls below Tolerance. A task whose claims all weigh zero falls back to
// their plain mean. Sums run over sources in index order and over each
// source's claims in their given order, so results are reproducible to
// the bit.
type Loop struct {
	// Sources[i] holds source i's claims.
	Sources [][]Claim
	// Norm[j] divides the squared residuals of task j in the losses.
	Norm []float64
	// Rule is the weight-estimation step.
	Rule WeightRule
	// MaxIterations caps the rounds; a cap of zero or less runs none.
	MaxIterations int
	// Tolerance ends the loop after a round whose largest truth move is
	// below it.
	Tolerance float64
	// OnRound, when non-nil, is called after every round with its number
	// (from 1) and its largest truth move.
	OnRound func(round int, delta float64)
}

// Run iterates from the given truths and weights and updates both in
// place; tasks without claims keep their truths. It returns the rounds
// run and whether the last one converged. When ctx ends before a round,
// Run stops there and returns ctx's error with the state of the rounds
// already run.
func (l Loop) Run(ctx context.Context, truths, weights []float64) (rounds int, converged bool, err error) {
	m := len(truths)
	// Per task: the weighted sums of a round, and the plain sum and count
	// of its claims for the all-zero-weight fallback. Scattering claims
	// in source order adds them to each task's sums in that order.
	num, den := make([]float64, m), make([]float64, m)
	sum, count := make([]float64, m), make([]int, m)
	counts := make([]int, len(l.Sources))
	for i, claims := range l.Sources {
		counts[i] = len(claims)
		for _, c := range claims {
			sum[c.Task] += c.Value
			count[c.Task]++
		}
	}
	losses := make([]float64, len(l.Sources))
	for rounds < l.MaxIterations {
		if err := ctx.Err(); err != nil {
			return rounds, false, err
		}
		for i, claims := range l.Sources {
			var loss float64
			for _, c := range claims {
				d := c.Value - truths[c.Task]
				loss += c.Scale * d * d / l.Norm[c.Task]
			}
			losses[i] = loss
		}
		l.Rule(losses, counts, weights)

		clear(num)
		clear(den)
		for i, claims := range l.Sources {
			for _, c := range claims {
				w := weights[i] * c.Scale
				num[c.Task] += w * c.Value
				den[c.Task] += w
			}
		}
		maxDelta := 0.0
		for j := range truths {
			if count[j] == 0 {
				continue
			}
			next := num[j] / den[j]
			if den[j] == 0 {
				next = sum[j] / float64(count[j])
			}
			if d := math.Abs(next - truths[j]); d > maxDelta {
				maxDelta = d
			}
			truths[j] = next
		}
		rounds++
		if l.OnRound != nil {
			l.OnRound(rounds, maxDelta)
		}
		if maxDelta < l.Tolerance {
			return rounds, true, nil
		}
	}
	return rounds, false, nil
}

// LogRatio is CRH's weight rule, w_i = max(0, log(Σ loss / loss_i)) with
// every loss floored at floor. Sources without claims get weight 0;
// withIdle also adds their floored loss to the sum, as CRH does for
// accounts without observations.
func LogRatio(floor float64, withIdle bool) WeightRule {
	return func(losses []float64, counts []int, weights []float64) {
		var total float64
		for i, loss := range losses {
			if counts[i] > 0 || withIdle {
				total += max(loss, floor)
			}
		}
		for i, loss := range losses {
			weights[i] = 0
			if counts[i] > 0 {
				// An account worse than the whole crowd combined keeps
				// weight 0 rather than a negative one, which would corrupt
				// the weighted mean.
				weights[i] = max(math.Log(total/max(loss, floor)), 0)
			}
		}
	}
}

// TaskValues returns the values claimed for each of numTasks tasks, in
// source order, over one shared backing array.
func TaskValues(sources [][]Claim, numTasks int) [][]float64 {
	sizes := make([]int, numTasks)
	total := 0
	for _, claims := range sources {
		for _, c := range claims {
			sizes[c.Task]++
		}
		total += len(claims)
	}
	flat := make([]float64, total)
	values := make([][]float64, numTasks)
	for j, size := range sizes {
		values[j], flat = flat[:0:size], flat[size:]
	}
	for _, claims := range sources {
		for _, c := range claims {
			values[c.Task] = append(values[c.Task], c.Value)
		}
	}
	return values
}

// StdNormalizer is the per-task scale normalizer of CRH's loss: the
// population standard deviation of each task's values, floored so that
// single-report and zero-variance tasks stay usable.
func StdNormalizer(values [][]float64) []float64 {
	norm := make([]float64, len(values))
	for j, vals := range values {
		norm[j] = max(signal.StdDev(vals), 1e-9)
	}
	return norm
}

// loopInputs prepares a dataset for the loop: every account becomes a
// source (see accountClaims), and the truths start at each task's median
// (NaN where nobody reported), the CRH reference implementation's choice;
// Algorithm 1 permits any start. It also returns the values reported per
// task.
func loopInputs(ds *mcs.Dataset) (sources [][]Claim, values [][]float64, truths []float64) {
	sources = accountClaims(ds)
	values = TaskValues(sources, ds.NumTasks())
	truths = make([]float64, ds.NumTasks())
	for j := range truths {
		truths[j] = math.NaN()
	}
	medianStart(truths, values)
	return sources, values, truths
}

// accountClaims returns each account's observations, in order, as claims
// of scale 1.
func accountClaims(ds *mcs.Dataset) [][]Claim {
	total := 0
	for i := range ds.Accounts {
		total += len(ds.Accounts[i].Observations)
	}
	flat := make([]Claim, 0, total)
	sources := make([][]Claim, ds.NumAccounts())
	for i := range ds.Accounts {
		start := len(flat)
		for _, o := range ds.Accounts[i].Observations {
			flat = append(flat, Claim{Task: o.Task, Value: o.Value, Scale: 1})
		}
		sources[i] = flat[start:]
	}
	return sources
}

// medianStart sets the truth of every reported task that has none (NaN)
// to the median of its values.
func medianStart(truths []float64, values [][]float64) {
	for j, vals := range values {
		if len(vals) > 0 && math.IsNaN(truths[j]) {
			truths[j], _ = signal.Median(vals) // fails only on no values
		}
	}
}

// runLoop runs l from truths and weights, records the run under the
// metric label alg (see observeLoop) and returns the result.
func runLoop(alg string, l Loop, truths, weights []float64) Result {
	// The context never ends, so Run returns no error.
	rounds, converged, _ := l.Run(context.TODO(), truths, weights)
	observeLoop(alg, rounds, converged)
	return Result{Truths: truths, Weights: weights, Iterations: rounds, Converged: converged}
}
