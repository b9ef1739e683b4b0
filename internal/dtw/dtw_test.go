package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdenticalSeriesZero(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := Distance(a, a); d != 0 {
		t.Errorf("Distance(a, a) = %v, want 0", d)
	}
}

func TestEmptySeries(t *testing.T) {
	if d := Distance(nil, nil); d != 0 {
		t.Errorf("Distance(nil, nil) = %v, want 0", d)
	}
	if d := Distance([]float64{1}, nil); !math.IsInf(d, 1) {
		t.Errorf("Distance(a, nil) = %v, want +Inf", d)
	}
	if d := Distance(nil, []float64{1}); !math.IsInf(d, 1) {
		t.Errorf("Distance(nil, b) = %v, want +Inf", d)
	}
}

func TestSingleElements(t *testing.T) {
	// For single elements the distance is |a-b| (one path cell, squared
	// distance, sqrt of cost/1).
	if d := Distance([]float64{3}, []float64{7}); math.Abs(d-4) > 1e-12 {
		t.Errorf("Distance([3],[7]) = %v, want 4", d)
	}
}

func TestTimeShiftedSeriesAlign(t *testing.T) {
	// A shifted copy of a ramp aligns almost perfectly under DTW while the
	// pointwise (Euclidean-style) distance is large.
	a := []float64{0, 0, 1, 2, 3, 4, 5, 5}
	b := []float64{0, 1, 2, 3, 4, 5, 5, 5}
	d := Distance(a, b)
	var euclid float64
	for i := range a {
		diff := a[i] - b[i]
		euclid += diff * diff
	}
	euclid = math.Sqrt(euclid / float64(len(a)))
	if d >= euclid {
		t.Errorf("DTW %v should beat pointwise RMS %v on shifted series", d, euclid)
	}
	if d > 0.3 {
		t.Errorf("DTW of shifted ramp = %v, want near 0", d)
	}
}

func TestUnequalLengths(t *testing.T) {
	// Same shape sampled at different rates: small distance.
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}
	d := Distance(a, b)
	if math.IsInf(d, 0) || d > 0.5 {
		t.Errorf("Distance across lengths = %v, want small finite", d)
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		a := clampAll(rawA)
		b := clampAll(rawB)
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		if math.IsInf(d1, 1) && math.IsInf(d2, 1) {
			return true
		}
		return math.Abs(d1-d2) <= 1e-9*(1+math.Abs(d1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNonNegativityAndIdentityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		a := clampAll(raw)
		if Distance(a, a) != 0 {
			return false
		}
		shifted := make([]float64, len(a))
		for i, v := range a {
			shifted[i] = v + 1
		}
		return Distance(a, shifted) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// bestPath is the exhaustive reference for the DP kernels: it walks every
// warping path from (0, 0) to (m-1, n-1) with unit steps right, down and
// diagonal, sums cost along each path in path order (the order the DP adds
// in), and returns the minimum sum and, among paths with that sum, the
// fewest cells. It shares no code with the kernels.
func bestPath(m, n int, cost func(i, j int) float64) (sum float64, cells int) {
	sum, cells = math.Inf(1), 0
	var walk func(i, j int, acc float64, k int)
	walk = func(i, j int, acc float64, k int) {
		acc += cost(i, j)
		k++
		if i == m-1 && j == n-1 {
			if acc < sum || (acc == sum && k < cells) {
				sum, cells = acc, k
			}
			return
		}
		if i+1 < m {
			walk(i+1, j, acc, k)
		}
		if j+1 < n {
			walk(i, j+1, acc, k)
		}
		if i+1 < m && j+1 < n {
			walk(i+1, j+1, acc, k)
		}
	}
	walk(0, 0, 0, 0)
	return sum, cells
}

// TestKernelsMatchExhaustivePaths checks Distance and AbsoluteCost against
// every warping path for all lengths m, n <= 6, bit for bit, and both
// endpoint bounds against the same reference. Small-integer series make
// many paths tie on cost, which exercises the shortest-path tie-break of
// Eq. (7); Gaussian series exercise general rounding.
func TestKernelsMatchExhaustivePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gens := []struct {
		name string
		draw func() float64
	}{
		{"small-int", func() float64 { return float64(rng.Intn(4)) }},
		{"gaussian", rng.NormFloat64},
	}
	var calc Calculator
	for _, gen := range gens {
		name := gen.name
		for m := 1; m <= 6; m++ {
			for n := 1; n <= 6; n++ {
				for trial := 0; trial < 20; trial++ {
					a, b := make([]float64, m), make([]float64, n)
					for i := range a {
						a[i] = gen.draw()
					}
					for j := range b {
						b[j] = gen.draw()
					}
					sq, cells := bestPath(m, n, func(i, j int) float64 {
						d := a[i] - b[j]
						return float64(d * d)
					})
					want := math.Sqrt(sq / float64(cells))
					if got := calc.Distance(a, b); got != want {
						t.Fatalf("%s %v vs %v: Distance = %v, exhaustive = %v", name, a, b, got, want)
					}
					abs, _ := bestPath(m, n, func(i, j int) float64 { return math.Abs(a[i] - b[j]) })
					if got := calc.AbsoluteCost(a, b); got != abs {
						t.Fatalf("%s %v vs %v: AbsoluteCost = %v, exhaustive = %v", name, a, b, got, abs)
					}
					ea, eb := EndsOf(a), EndsOf(b)
					if lb := DistanceBound(ea, eb); lb > want {
						t.Fatalf("%s %v vs %v: DistanceBound %v > exhaustive %v", name, a, b, lb, want)
					}
					if lb := AbsoluteCostBound(ea, eb); lb > abs {
						t.Fatalf("%s %v vs %v: AbsoluteCostBound %v > exhaustive %v", name, a, b, lb, abs)
					}
				}
			}
		}
	}
}

// TestBoundsNeverExceedDTW checks each endpoint bound against its DTW by
// plain float comparison on random series of lengths 0..40, weighted
// towards length 1. When the ends are every cell of the only warping path
// (m + n <= 3), bound and DTW must be equal.
func TestBoundsNeverExceedDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	length := func() int {
		if rng.Intn(3) == 0 {
			return rng.Intn(2)
		}
		return rng.Intn(41)
	}
	series := func(n int) []float64 {
		s := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range s {
			s[i] = rng.NormFloat64() * scale
		}
		return s
	}
	var calc Calculator
	for trial := 0; trial < 5000; trial++ {
		a, b := series(length()), series(length())
		ea, eb := EndsOf(a), EndsOf(b)
		d, lb := calc.Distance(a, b), DistanceBound(ea, eb)
		c, lc := calc.AbsoluteCost(a, b), AbsoluteCostBound(ea, eb)
		if lb > d || lc > c {
			t.Fatalf("len %d vs %d: DistanceBound %v vs Distance %v, AbsoluteCostBound %v vs AbsoluteCost %v", len(a), len(b), lb, d, lc, c)
		}
		if len(a)+len(b) <= 3 && (lb != d || lc != c) {
			t.Fatalf("len %d vs %d: a one-path pair must have exact bounds: %v/%v, %v/%v", len(a), len(b), lb, d, lc, c)
		}
	}
}

func clampAll(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > 1e3 {
			v = 1e3
		}
		if v < -1e3 {
			v = -1e3
		}
		out = append(out, v)
	}
	return out
}

func BenchmarkDistance100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}
