// Package dtw implements Dynamic Time Warping, the elastic distance used by
// the AG-TR account grouping method to compare account trajectories (task
// series and timestamp series) of unequal length.
//
// The distance follows Eq. (7) of the paper (after Ratanamahatana & Keogh
// 2004): each warping-path element carries the squared pointwise distance,
// and the reported distance is sqrt(total path cost / path length), i.e. a
// length-normalized root-mean-square alignment cost. Length normalization
// matters here because account trajectories differ in length with account
// activeness, and an unnormalized cost would conflate "long trajectory"
// with "dissimilar trajectory". AbsoluteCost is the unnormalized
// absolute-distance cost that the paper's Fig. 4 tabulates.
//
// Each DTW has an endpoint lower bound (DistanceBound, AbsoluteCostBound)
// that reads only the series' first and last values and lengths, so a pair
// pass can skip the O(mn) DP for pairs the bound already rules out. The
// bounds round like the DP, so in floating point too a bound never exceeds
// its DTW.
package dtw

import (
	"math"
)

// Distance returns the normalized DTW distance between series a and b with
// an unconstrained warping window. Empty series follow the convention:
// both empty -> 0; exactly one empty -> +Inf (nothing can align).
//
// The DP lives in Calculator.Distance; this wrapper allocates a fresh
// Calculator per call. Hot pairwise loops should hold a per-worker
// Calculator instead.
func Distance(a, b []float64) float64 {
	var c Calculator
	return c.Distance(a, b)
}

// Ends is what the endpoint lower bounds read of a series: its first and
// last values and its length.
type Ends struct {
	First, Last float64
	Len         int
}

// EndsOf returns the ends of s; an empty s has Len 0.
func EndsOf(s []float64) Ends {
	if len(s) == 0 {
		return Ends{}
	}
	return Ends{First: s[0], Last: s[len(s)-1], Len: len(s)}
}

// empty returns the DTW of a pair in which a series of length m or n is
// empty, and whether one is: 0 when both are, +Inf when exactly one is.
func empty(m, n int) (float64, bool) {
	switch {
	case m == 0 && n == 0:
		return 0, true
	case m == 0 || n == 0:
		return math.Inf(1), true
	}
	return 0, false
}

// DistanceBound returns a lower bound on Distance(a, b) from the series'
// ends alone, the UCR suite's LB_Kim (Rakthanmanon et al., KDD 2012):
//
//	sqrt((Δfirst² + Δlast²) / (m+n−1)) ≤ Distance(a, b).
//
// Every warping path holds both end cells and at most m+n−1 cells, and no
// cell costs less than zero. When m = n = 1 the two ends are one cell, so
// the bound keeps only the Δfirst term and equals the distance. The squares
// are rounded exactly as the DP rounds its cell costs, and rounded
// addition, division and square root are monotone, so the float bound
// never exceeds the float distance either. Empty series follow Distance's
// convention.
func DistanceBound(a, b Ends) float64 {
	if d, ok := empty(a.Len, b.Len); ok {
		return d
	}
	df := a.First - b.First
	num := float64(df * df)
	if a.Len > 1 || b.Len > 1 {
		dl := a.Last - b.Last
		num += float64(dl * dl)
	}
	return math.Sqrt(num / float64(a.Len+b.Len-1))
}
