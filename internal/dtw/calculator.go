package dtw

import "math"

// Calculator computes DTW distances with owned, reusable DP rows. The free
// functions Distance and AbsoluteCost allocate four slices per call, which
// dominates the allocation profile of the O(n²) pairwise loops in account
// grouping; a Calculator amortizes that to (roughly) one allocation per
// worker for a whole grouping run.
//
// A Calculator is not safe for concurrent use: give each worker goroutine
// its own (see the per-worker setup of parallel.Pairwise). The zero value
// is ready to use. Results are bit-identical to the free functions.
type Calculator struct {
	prev, cur       []float64
	prevLen, curLen []int
}

// NewCalculator returns a Calculator with empty buffers; they grow on first
// use and are reused afterwards.
func NewCalculator() *Calculator { return &Calculator{} }

// grow ensures the DP rows hold at least size entries.
func (c *Calculator) grow(size int) {
	if cap(c.prev) < size {
		c.prev = make([]float64, size)
		c.cur = make([]float64, size)
		c.prevLen = make([]int, size)
		c.curLen = make([]int, size)
	}
	c.prev = c.prev[:size]
	c.cur = c.cur[:size]
	c.prevLen = c.prevLen[:size]
	c.curLen = c.curLen[:size]
}

// Distance is the reusable-buffer equivalent of the package-level Distance;
// see that function for the conventions.
func (c *Calculator) Distance(a, b []float64) float64 {
	m, n := len(a), len(b)
	if d, ok := empty(m, n); ok {
		return d
	}

	// Rolling two-row DP over cumulative cost r(i,j) =
	// dist(a_i, b_j) + min(r(i-1,j-1), r(i-1,j), r(i,j-1)).
	// pathLen tracks K, the number of cells on the optimal path, needed for
	// the length normalization of Eq. (7). Ties in cost prefer the diagonal
	// (shortest path), matching the common DTW implementation.
	inf := math.Inf(1)
	c.grow(n + 1)
	prev, cur, prevLen, curLen := c.prev, c.cur, c.prevLen, c.curLen
	for j := 0; j <= n; j++ {
		prev[j] = inf
		prevLen[j] = 0
	}
	prev[0] = 0

	for i := 1; i <= m; i++ {
		cur[0], curLen[0] = inf, 0
		for j := 1; j <= n; j++ {
			d := a[i-1] - b[j-1]
			// The explicit conversion rounds the square before the sum
			// below, so no GOARCH fuses them into one multiply-add: the
			// result is the same on every architecture, and never below
			// the endpoint bound, which rounds the same way.
			cost := float64(d * d)
			// Candidates: diagonal, up (from prev row), left (same row).
			// Minimize (cost, pathLen) lexicographically: among equal-cost
			// paths the shortest is kept, which makes the normalized
			// distance independent of argument order even under ties.
			bestCost := prev[j-1]
			bestLen := prevLen[j-1]
			if prev[j] < bestCost || (prev[j] == bestCost && prevLen[j] < bestLen) {
				bestCost = prev[j]
				bestLen = prevLen[j]
			}
			if cur[j-1] < bestCost || (cur[j-1] == bestCost && curLen[j-1] < bestLen) {
				bestCost = cur[j-1]
				bestLen = curLen[j-1]
			}
			if math.IsInf(bestCost, 1) {
				cur[j], curLen[j] = inf, 0
				continue
			}
			cur[j] = bestCost + cost
			curLen[j] = bestLen + 1
		}
		// Cell (1, j) can start from r(0,0) only via the diagonal when
		// j == 1, which prev[0] = 0 provides for i == 1. For i > 1, prev[0]
		// must be inf.
		prev, cur = cur, prev
		prevLen, curLen = curLen, prevLen
		prev[0] = inf
	}
	total := prev[n]
	k := prevLen[n]
	if math.IsInf(total, 1) || k == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(total / float64(k))
}

// AbsoluteCost is the reusable-buffer equivalent of the package-level
// AbsoluteCost; see that function for the algorithm and conventions.
func (c *Calculator) AbsoluteCost(a, b []float64) float64 {
	m, n := len(a), len(b)
	if d, ok := empty(m, n); ok {
		return d
	}
	inf := math.Inf(1)
	c.grow(n + 1)
	prev, cur := c.prev, c.cur
	for j := 0; j <= n; j++ {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = inf
		for j := 1; j <= n; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
		// After the first row, r(0,0) is no longer reachable as a path
		// start, so the left border stays infinite.
		prev[0] = inf
	}
	return prev[n]
}
