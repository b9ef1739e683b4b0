package truth

import (
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
)

// CRHConfig tunes the CRH iteration.
type CRHConfig struct {
	// MaxIterations caps the estimation loop. Zero means 100, the paper's
	// convergence criterion style ("maximum number of iterations in [10]").
	MaxIterations int
	// Tolerance stops the loop when the largest truth update falls below
	// it. Zero means 1e-6.
	Tolerance float64
	// LossFloor is the minimum per-account loss, preventing an account that
	// matches the estimated truth exactly from receiving infinite weight.
	// Zero means 1e-9.
	LossFloor float64
}

func (c CRHConfig) withDefaults() CRHConfig {
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

// CRH implements the Conflict Resolution on Heterogeneous data algorithm
// (Li et al., SIGMOD 2014) for continuous data, the truth-discovery
// algorithm the paper uses to represent the family (§III-C, §V):
//
//	weight estimation:  w_i = log( Σ_i' loss_i' / loss_i ),
//	                    loss_i = Σ_{j∈T_i} (d_j^i − x_j)² / std_j
//	truth estimation:   x_j = Σ_{i∈U_j} w_i d_j^i / Σ_{i∈U_j} w_i
//
// where std_j normalizes task scales. Truths are initialized to per-task
// medians (the CRH reference implementation's choice; Algorithm 1 permits
// any initialization).
type CRH struct {
	Config CRHConfig
}

// Name implements Algorithm.
func (CRH) Name() string { return "CRH" }

// Run implements Algorithm.
func (c CRH) Run(ds *mcs.Dataset) (Result, error) {
	if err := validate(ds); err != nil {
		return Result{}, err
	}
	defer obs.Default().Timer("truth.crh.run_seconds").Start().Stop()
	cfg := c.Config.withDefaults()
	sources, values, truths := loopInputs(ds)
	return runLoop("crh", Loop{
		Sources:       sources,
		Norm:          StdNormalizer(values),
		Rule:          LogRatio(cfg.LossFloor, true),
		MaxIterations: cfg.MaxIterations,
		Tolerance:     cfg.Tolerance,
	}, truths, uniformWeights(ds.NumAccounts())), nil
}

var _ Algorithm = CRH{}
