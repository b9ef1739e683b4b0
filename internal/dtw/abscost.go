package dtw

import "math"

// AbsoluteCost returns the classic unnormalized DTW cost with absolute
// pointwise distance: the minimum over warping paths of Σ |a_i − b_j|.
//
// The paper's Eq. (7) defines the normalized squared-distance form
// (Distance), but the worked example of Fig. 4 tabulates unnormalized
// absolute costs (e.g. DTW(X_1, X_2) = 2 for task series (1,2,3,4) vs
// (2,3)); this function reproduces those numbers for the walkthrough
// experiment. Empty-series conventions match Distance.
//
// The DP lives in Calculator.AbsoluteCost; this wrapper allocates a fresh
// Calculator per call. Hot pairwise loops should hold a per-worker
// Calculator instead.
func AbsoluteCost(a, b []float64) float64 {
	var c Calculator
	return c.AbsoluteCost(a, b)
}

// AbsoluteCostBound returns a lower bound on AbsoluteCost(a, b) from the
// series' ends alone: |Δfirst| + |Δlast|, or |Δfirst| when m = n = 1 and
// the two ends are one cell. Every warping path holds both end cells and
// no cell costs less than zero, and rounded addition is monotone, so the
// float bound never exceeds the float cost. Empty series follow
// AbsoluteCost's convention.
func AbsoluteCostBound(a, b Ends) float64 {
	if d, ok := empty(a.Len, b.Len); ok {
		return d
	}
	lb := math.Abs(a.First - b.First)
	if a.Len > 1 || b.Len > 1 {
		lb += math.Abs(a.Last - b.Last)
	}
	return lb
}
