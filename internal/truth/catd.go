package truth

import (
	"fmt"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/signal"
)

// CATD implements the Confidence-Aware Truth Discovery algorithm of Li et
// al. (VLDB 2015), reference [9] of the paper. CATD targets the long-tail
// regime where most sources provide few claims: instead of a point
// estimate of each source's error variance, it uses the upper bound of the
// variance's (1−Alpha) confidence interval, so sources with little data
// are not over-trusted:
//
//	w_i = chi²_{Alpha/2, n_i} / Σ_{j∈T_i} (d_j^i − x_j)²/std_j
//
// where n_i is the number of claims of source i. Like CRH it alternates
// weight and truth estimation until the truths stabilize.
type CATD struct {
	// Alpha is the significance level of the variance confidence interval;
	// zero means 0.05 (the paper's choice).
	Alpha float64
	// MaxIterations caps the loop; zero means 100.
	MaxIterations int
	// Tolerance stops the loop when the largest truth update falls below
	// it; zero means 1e-6.
	Tolerance float64
}

// Name implements Algorithm.
func (CATD) Name() string { return "CATD" }

// Run implements Algorithm.
func (c CATD) Run(ds *mcs.Dataset) (Result, error) {
	if err := validate(ds); err != nil {
		return Result{}, err
	}
	defer obs.Default().Timer("truth.catd.run_seconds").Start().Stop()
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	maxIter := c.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	tol := c.Tolerance
	if tol == 0 {
		tol = 1e-6
	}

	sources, values, truths := loopInputs(ds)

	// Per-source chi-squared numerators (depend only on claim counts).
	chi := make([]float64, len(sources))
	for i, claims := range sources {
		if len(claims) == 0 {
			continue
		}
		q, err := signal.ChiSquaredQuantile(alpha/2, len(claims))
		if err != nil {
			return Result{}, fmt.Errorf("truth: CATD chi² for source %d: %w", i, err)
		}
		// Guard the df=1 deep-left-tail case where Wilson-Hilferty clamps
		// to zero: fall back to a tiny positive numerator.
		if q <= 0 {
			q = 1e-4
		}
		chi[i] = q
	}
	rule := func(losses []float64, counts []int, weights []float64) {
		for i, loss := range losses {
			// Floor the loss at a small normalized residual per claim, so
			// a source whose few claims happen to sit exactly on the
			// estimate cannot acquire unbounded weight — the situation the
			// confidence interval exists to prevent. A source without
			// claims has chi 0, so weight 0.
			weights[i] = chi[i] / max(loss, float64(counts[i])*1e-3+1e-9)
		}
	}
	return runLoop("catd", Loop{
		Sources:       sources,
		Norm:          StdNormalizer(values),
		Rule:          rule,
		MaxIterations: maxIter,
		Tolerance:     tol,
	}, truths, make([]float64, len(sources))), nil
}

var _ Algorithm = CATD{}
