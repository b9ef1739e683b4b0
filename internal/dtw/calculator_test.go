package dtw

import (
	"math/rand"
	"testing"
)

// TestCalculatorMatchesFreeFunctions checks bit-exact equality between a
// reused Calculator and the allocating free functions across many series of
// varying (and shrinking, then growing) lengths, so buffer reuse across
// calls of different sizes is exercised.
func TestCalculatorMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	calc := NewCalculator()
	lengths := []int{0, 1, 3, 64, 7, 2, 33, 1, 16}
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64() * 10
		}
		return s
	}
	for _, la := range lengths {
		for _, lb := range lengths {
			a, b := series(la), series(lb)
			if got, want := calc.Distance(a, b), Distance(a, b); got != want {
				t.Fatalf("Distance(len %d, len %d): calculator %v != free %v", la, lb, got, want)
			}
			if got, want := calc.AbsoluteCost(a, b), AbsoluteCost(a, b); got != want {
				t.Fatalf("AbsoluteCost(len %d, len %d): calculator %v != free %v", la, lb, got, want)
			}
		}
	}
}

// TestCalculatorFuzzCorpusInputs replays the fuzz seed corpus through a
// shared Calculator, mirroring FuzzDistance's derivation of series from
// bytes, and demands exact agreement with the free functions.
func TestCalculatorFuzzCorpusInputs(t *testing.T) {
	corpus := [][2][]byte{
		{{1, 2, 3}, {3, 2, 1}},
		{{}, {5}},
		{{128}, {128}},
		{{0, 255, 0, 255}, {255, 0}},
		{{7}, {}},
	}
	calc := NewCalculator()
	for _, pair := range corpus {
		a := bytesToSeries(pair[0])
		b := bytesToSeries(pair[1])
		if got, want := calc.Distance(a, b), Distance(a, b); got != want {
			t.Errorf("corpus %v/%v: Distance calculator %v != free %v", pair[0], pair[1], got, want)
		}
		if got, want := calc.AbsoluteCost(a, b), AbsoluteCost(a, b); got != want {
			t.Errorf("corpus %v/%v: AbsoluteCost calculator %v != free %v", pair[0], pair[1], got, want)
		}
	}
}

func BenchmarkCalculatorVsFreeDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 48)
	c := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	b.Run("free", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Distance(a, c)
		}
	})
	b.Run("calculator", func(b *testing.B) {
		calc := NewCalculator()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			calc.Distance(a, c)
		}
	})
}
