package dtw

import (
	"math"
	"testing"
)

// bytesToSeries turns fuzz bytes into a bounded float series.
func bytesToSeries(bs []byte) []float64 {
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		out = append(out, float64(int(b)-128)/8)
	}
	return out
}

// FuzzDistance checks DTW's metric-ish axioms on arbitrary series: no
// panics, non-negativity, symmetry and identity; that neither endpoint
// bound exceeds its DTW; and that a reused Calculator agrees with the free
// functions.
func FuzzDistance(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{128}, []byte{128})

	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		if len(rawA) > 64 {
			rawA = rawA[:64]
		}
		if len(rawB) > 64 {
			rawB = rawB[:64]
		}
		a := bytesToSeries(rawA)
		b := bytesToSeries(rawB)

		d := Distance(a, b)
		switch {
		case len(a) == 0 && len(b) == 0:
			if d != 0 {
				t.Fatalf("both-empty distance = %v", d)
			}
			return
		case len(a) == 0 || len(b) == 0:
			if !math.IsInf(d, 1) {
				t.Fatalf("one-empty distance = %v", d)
			}
			return
		}
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("distance = %v", d)
		}
		if rd := Distance(b, a); math.Abs(d-rd) > 1e-9*(1+d) {
			t.Fatalf("asymmetric: %v vs %v", d, rd)
		}
		if self := Distance(a, a); self != 0 {
			t.Fatalf("Distance(a,a) = %v", self)
		}
		abs := AbsoluteCost(a, b)
		if abs < 0 || math.IsNaN(abs) {
			t.Fatalf("AbsoluteCost = %v", abs)
		}
		// The endpoint bounds must never exceed their DTW, with no
		// tolerance: a bound above the DTW would let a pair pass drop an
		// edge.
		ea, eb := EndsOf(a), EndsOf(b)
		if lb := DistanceBound(ea, eb); lb > d {
			t.Fatalf("DistanceBound %v > Distance %v", lb, d)
		}
		if lb := AbsoluteCostBound(ea, eb); lb > abs {
			t.Fatalf("AbsoluteCostBound %v > AbsoluteCost %v", lb, abs)
		}
		// A reused Calculator must agree bit-for-bit with the free
		// functions on every input (buffer reuse across the two calls
		// exercises stale-state handling).
		var calc Calculator
		if cd := calc.Distance(a, b); cd != d {
			t.Fatalf("Calculator.Distance = %v, free = %v", cd, d)
		}
		if ca := calc.AbsoluteCost(a, b); ca != abs {
			t.Fatalf("Calculator.AbsoluteCost = %v, free = %v", ca, abs)
		}
	})
}
