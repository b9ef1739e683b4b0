package truth

import (
	"errors"
	"math"

	"sybiltd/internal/mcs"
)

// Uncertainty quantifies how much to trust each per-task estimate: the
// weighted standard error of the values around the estimated truth,
//
//	se_j = sqrt( Σ_i w_i (d_j^i − x_j)² / Σ_i w_i ) / sqrt(n_j^eff),
//
// where n_j^eff = (Σ w_i)² / Σ w_i² is Kish's effective sample size of the
// task's contributors. A platform uses it to flag tasks whose estimate
// rests on few or conflicting reports. Tasks without data get NaN;
// single-report tasks get +Inf (one observation carries no internal
// evidence about its own error).
func Uncertainty(ds *mcs.Dataset, res Result) ([]float64, error) {
	if ds == nil {
		return nil, ErrNilDataset
	}
	if len(res.Truths) != ds.NumTasks() {
		return nil, errors.New("truth: result does not match dataset task count")
	}
	if len(res.Weights) != ds.NumAccounts() {
		return nil, errors.New("truth: result does not match dataset account count")
	}

	type stats struct {
		wSum, w2Sum, wrSum float64
		count              int
	}
	perTask := make([]stats, ds.NumTasks())
	for ai := range ds.Accounts {
		w := res.Weights[ai]
		if w <= 0 {
			// Zero-weight contributors carry no evidence; still count the
			// observation so a single unweighted report yields +Inf, not
			// NaN.
			w = 0
		}
		for _, o := range ds.Accounts[ai].Observations {
			t := &perTask[o.Task]
			t.count++
			if w == 0 || math.IsNaN(res.Truths[o.Task]) {
				continue
			}
			r := o.Value - res.Truths[o.Task]
			t.wSum += w
			t.w2Sum += float64(w * w)
			t.wrSum += float64(w * r * r)
		}
	}

	out := make([]float64, ds.NumTasks())
	for j := range out {
		t := perTask[j]
		switch {
		case t.count == 0:
			out[j] = math.NaN()
		case t.count == 1 || t.wSum == 0:
			out[j] = math.Inf(1)
		default:
			variance := t.wrSum / t.wSum
			nEff := t.wSum * t.wSum / t.w2Sum
			if nEff <= 1 {
				out[j] = math.Inf(1)
				continue
			}
			out[j] = math.Sqrt(variance / nEff)
		}
	}
	return out, nil
}
