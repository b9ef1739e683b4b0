package truth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Online is an evolving-truth estimator in the spirit of "On the discovery
// of evolving truth" (Li et al., KDD 2015 — reference [11] of the paper):
// a streaming CRH whose observations decay with age, so the estimated
// truths track phenomena that drift over time (rush-hour noise levels,
// moving Wi-Fi interference) while source weights accumulate across
// rounds.
//
// Usage: Observe values during a round, call Tick to close the round, and
// read Estimate at any time. The zero value is not usable; call NewOnline.
type Online struct {
	numTasks int
	decay    float64
	maxIter  int
	tol      float64

	round int
	// latest[account][task] = the newest report (older reports of the same
	// account/task pair are superseded, per the one-report rule).
	latest map[string]map[int]onlineObs
	truths []float64
}

type onlineObs struct {
	value float64
	round int
}

// recencyFloor is the influence below which an observation is treated as
// fully faded: Estimate skips it and prune deletes it. Shared by both so
// the skip rule and the retention rule can never drift apart.
const recencyFloor = 1e-6

// OnlineConfig tunes an Online estimator.
type OnlineConfig struct {
	// Decay in (0, 1] is the per-round forgetting factor applied to each
	// observation's influence; 1 never forgets. Zero means 0.9.
	Decay float64
	// MaxIterations caps each Estimate's refinement loop; zero means 50.
	MaxIterations int
	// Tolerance stops the refinement early; zero means 1e-6.
	Tolerance float64
}

// NewOnline creates an evolving-truth estimator over numTasks tasks.
func NewOnline(numTasks int, cfg OnlineConfig) (*Online, error) {
	if numTasks < 1 {
		return nil, errors.New("truth: online estimator needs at least one task")
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.9
	}
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		return nil, fmt.Errorf("truth: decay %v outside (0, 1]", cfg.Decay)
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 50
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 1e-6
	}
	truths := make([]float64, numTasks)
	for j := range truths {
		truths[j] = math.NaN()
	}
	return &Online{
		numTasks: numTasks,
		decay:    cfg.Decay,
		maxIter:  cfg.MaxIterations,
		tol:      cfg.Tolerance,
		latest:   make(map[string]map[int]onlineObs),
		truths:   truths,
	}, nil
}

// Observe ingests one report in the current round. A newer report from the
// same account for the same task supersedes the older one.
func (o *Online) Observe(account string, task int, value float64) error {
	if account == "" {
		return errors.New("truth: empty account")
	}
	if task < 0 || task >= o.numTasks {
		return fmt.Errorf("truth: task %d out of range [0,%d)", task, o.numTasks)
	}
	byTask, ok := o.latest[account]
	if !ok {
		byTask = make(map[int]onlineObs)
		o.latest[account] = byTask
	}
	byTask[task] = onlineObs{value: value, round: o.round}
	return nil
}

// Tick closes the current round: subsequent observations belong to the
// next round and all existing observations age by one decay step.
// Observations that have fully faded (recency below recencyFloor) are
// pruned here, so a long-running estimator's memory is bounded by the
// live window — decay^window >= recencyFloor — instead of growing with
// every account that ever reported.
func (o *Online) Tick() {
	o.round++
	o.prune()
}

// recency returns an observation's current influence in [0, 1].
func (o *Online) recency(ob onlineObs) float64 {
	return math.Pow(o.decay, float64(o.round-ob.round))
}

// prune deletes observations whose influence fell below recencyFloor and
// accounts left with no live observations. With Decay == 1 nothing ever
// fades and prune is a no-op by design.
func (o *Online) prune() {
	if o.decay >= 1 {
		return
	}
	for account, byTask := range o.latest {
		for task, ob := range byTask {
			if o.recency(ob) < recencyFloor {
				delete(byTask, task)
			}
		}
		if len(byTask) == 0 {
			delete(o.latest, account)
		}
	}
}

// Has reports whether the estimator currently holds a report from
// account for task (presence, regardless of how far it has faded).
func (o *Online) Has(account string, task int) bool {
	_, ok := o.latest[account][task]
	return ok
}

// Round returns the current round number (starting at 0).
func (o *Online) Round() int { return o.round }

// Estimate refines and returns the current truth estimates. Tasks that
// have never been observed stay NaN. The returned slice is a copy.
//
// The refinement is the shared Loop with CRH's log-ratio weights, warm-
// started from the previous estimates (fresh tasks start at their
// median), over the live accounts in ID order with each observation's
// claim scaled by its recency. The fixed order makes the estimate a
// function of the held reports alone, whatever order they arrived in.
func (o *Online) Estimate() []float64 {
	type source struct {
		account string
		claims  []Claim
	}
	live := make([]source, 0, len(o.latest))
	for account, obs := range o.latest {
		claims := make([]Claim, 0, len(obs))
		for task, ob := range obs {
			recency := o.recency(ob)
			if recency < recencyFloor {
				// Fully faded: prune in place — this scan already visits
				// every observation, so deletion here is free and keeps
				// the maps bounded even if Tick is never called directly.
				delete(obs, task)
				continue
			}
			claims = append(claims, Claim{Task: task, Value: ob.value, Scale: recency})
		}
		if len(obs) == 0 {
			delete(o.latest, account)
			continue
		}
		slices.SortFunc(claims, func(a, b Claim) int { return a.Task - b.Task })
		live = append(live, source{account, claims})
	}
	slices.SortFunc(live, func(a, b source) int { return strings.Compare(a.account, b.account) })
	sources := make([][]Claim, len(live))
	for i, s := range live {
		sources[i] = s.claims
	}
	values := TaskValues(sources, o.numTasks)
	medianStart(o.truths, values)
	// The context never ends, so Run returns no error; Online reports no
	// round count.
	_, _, _ = Loop{
		Sources:       sources,
		Norm:          StdNormalizer(values),
		Rule:          LogRatio(1e-9, false),
		MaxIterations: o.maxIter,
		Tolerance:     o.tol,
	}.Run(context.TODO(), o.truths, make([]float64, len(sources)))

	out := make([]float64, o.numTasks)
	copy(out, o.truths)
	return out
}

// NumAccounts returns the number of live accounts: accounts with at least
// one observation whose influence is still above the recency floor.
// Accounts whose every report has fully faded no longer participate in
// Estimate and are not counted (they are pruned).
func (o *Online) NumAccounts() int {
	o.prune()
	return len(o.latest)
}

// NumObservations returns the number of live (non-faded) observations
// currently retained. Exposed so long-running deployments (and the
// steady-state regression test) can pin the estimator's memory footprint.
func (o *Online) NumObservations() int {
	o.prune()
	n := 0
	for _, byTask := range o.latest {
		n += len(byTask)
	}
	return n
}
