package signal

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("signal: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (second central moment).
// It returns 0 for inputs with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += float64(d * d)
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Skewness returns the standardized third central moment of xs, a measure of
// asymmetry about the mean. It returns 0 when the variance vanishes.
func Skewness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - mu
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the standardized fourth central moment of xs, a measure
// of the flatness or spikiness of the distribution. A normal distribution
// has kurtosis 3. It returns 0 when the variance vanishes.
func Kurtosis(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - mu
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(xs))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

// RMS returns the root mean square of xs: the square root of the arithmetic
// mean of the squared samples.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Max returns the maximum of xs. It returns an error on empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the minimum of xs. It returns an error on empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// ZeroCrossingRate returns the rate at which the signal changes sign
// (positive to negative or back), normalized by the number of adjacent
// sample pairs. Zero samples are treated as non-negative.
func ZeroCrossingRate(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var crossings int
	prevNonNeg := xs[0] >= 0
	for _, x := range xs[1:] {
		nonNeg := x >= 0
		if nonNeg != prevNonNeg {
			crossings++
		}
		prevNonNeg = nonNeg
	}
	return float64(crossings) / float64(len(xs)-1)
}

// NonNegativeCount returns the number of samples that are >= 0.
func NonNegativeCount(xs []float64) int {
	var count int
	for _, x := range xs {
		if x >= 0 {
			count++
		}
	}
	return count
}

// Median returns the median of xs without mutating it.
// It returns an error on empty input.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2], nil
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2, nil
}

// WeightedMean returns the weighted mean of xs with weights ws.
// It returns an error if the lengths differ, the input is empty, or the
// total weight is zero.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, errors.New("signal: length mismatch between values and weights")
	}
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	if den == 0 {
		return 0, errors.New("signal: zero total weight")
	}
	return num / den, nil
}

// Normalize returns a copy of xs linearly rescaled to [0, 1].
// A constant signal maps to all zeros.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if hi == lo {
		return out
	}
	scale := 1 / (hi - lo)
	for i, x := range xs {
		out[i] = (x - lo) * scale
	}
	return out
}

// ZScore returns a copy of xs standardized to zero mean and unit standard
// deviation. A constant signal maps to all zeros.
func ZScore(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	if sigma == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mu) / sigma
	}
	return out
}

// Magnitude3 returns the per-sample Euclidean magnitude of a 3-axis stream.
// All three slices must have equal length; extra samples in longer slices
// are ignored by truncating to the shortest.
func Magnitude3(x, y, z []float64) []float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if len(z) < n {
		n = len(z)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
	}
	return out
}
