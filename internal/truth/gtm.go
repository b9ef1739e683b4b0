package truth

import (
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/signal"
)

// GTM implements a Gaussian Truth Model (Zhao & Han's GTM, the standard
// probabilistic baseline for numeric truth discovery): each observation is
// modeled as d_j^i = x_j + ε_i with ε_i ~ N(0, σ_i²), and an EM loop
// alternates estimating the truths (precision-weighted means) and the
// per-source variances (posterior means under an inverse-gamma prior,
// which keeps one-claim sources from collapsing to zero variance).
type GTM struct {
	// PriorAlpha/PriorBeta parameterize the inverse-gamma prior over
	// source variances. Zeros mean (2, 2·initialVariance), a weakly
	// informative prior centered on the crowd's dispersion.
	PriorAlpha float64
	PriorBeta  float64
	// MaxIterations caps the EM loop; zero means 100.
	MaxIterations int
	// Tolerance stops the loop when the largest truth update falls below
	// it; zero means 1e-6.
	Tolerance float64
}

// Name implements Algorithm.
func (GTM) Name() string { return "GTM" }

// Run implements Algorithm.
func (g GTM) Run(ds *mcs.Dataset) (Result, error) {
	if err := validate(ds); err != nil {
		return Result{}, err
	}
	defer obs.Default().Timer("truth.gtm.run_seconds").Start().Stop()
	maxIter := g.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	tol := g.Tolerance
	if tol == 0 {
		tol = 1e-6
	}

	sources, values, truths := loopInputs(ds)
	var crowdVar float64
	var varCount int
	for _, vals := range values {
		if v := signal.Variance(vals); v > 0 {
			crowdVar += v
			varCount++
		}
	}
	if varCount > 0 {
		crowdVar /= float64(varCount)
	}
	if crowdVar < 1e-6 {
		crowdVar = 1e-6
	}

	alpha := g.PriorAlpha
	if alpha == 0 {
		alpha = 2
	}
	beta := g.PriorBeta
	if beta == 0 {
		beta = 2 * crowdVar
	}

	// Sources weigh by precision, the inverse of their variance; every
	// variance starts at the crowd's.
	weights := make([]float64, len(sources))
	for i, claims := range sources {
		if len(claims) > 0 {
			weights[i] = 1 / crowdVar
		}
	}
	// M-step: per-source variance posterior mean under IG(alpha, beta),
	// (beta + SSR/2) / (alpha + n_i/2 - 1), over unnormalized residuals.
	// The loop's truth step is the E-step: precision-weighted means.
	rule := func(ssr []float64, counts []int, weights []float64) {
		for i := range ssr {
			if counts[i] == 0 {
				weights[i] = 0
				continue
			}
			den := max(alpha+float64(counts[i])/2-1, 0.5)
			weights[i] = 1 / max((beta+ssr[i]/2)/den, 1e-9)
		}
	}
	unit := make([]float64, ds.NumTasks())
	for j := range unit {
		unit[j] = 1
	}
	return runLoop("gtm", Loop{
		Sources:       sources,
		Norm:          unit,
		Rule:          rule,
		MaxIterations: maxIter,
		Tolerance:     tol,
	}, truths, weights), nil
}

var _ Algorithm = GTM{}
