// Package parallel is the shared worker-pool substrate for the framework's
// embarrassingly parallel loops: independent experiment trials, k-means
// restarts and k-sweeps (ForEach), and the O(n²) pair passes of the
// threshold grouping methods (Pairwise).
//
// Neither helper reorders, sums, or otherwise combines caller data, so
// determinism rests on how callers record results: ForEach callers write
// into preassigned per-index slots and reduce them in index order, and
// Pairwise callers combine pair results in an order-independent way (the
// grouping methods union edges, and the components of an edge set do not
// depend on the order its edges are found in). Either way the output is
// bit-identical regardless of GOMAXPROCS or goroutine scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sybiltd/internal/obs"
)

// Pool telemetry: one counter/gauge/histogram update per ForEach or
// Pairwise call (plus two gauge moves per worker goroutine), never per
// item — the pools sit under per-pair DTW loops where per-item accounting
// would be measurable.
func observePool(kind string, items, workers int) {
	reg := obs.Default()
	reg.Counter("parallel." + kind + ".calls").Inc()
	reg.Counter("parallel." + kind + ".items").Add(int64(items))
	reg.Histogram("parallel." + kind + ".workers").Observe(float64(workers))
}

// busyWorkers tracks how many pool worker goroutines are currently
// running across all helpers — the live utilization gauge.
func busyWorkers() *obs.Gauge {
	return obs.Default().Gauge("parallel.workers_busy")
}

// ForEach runs fn(i) for i = 0..n-1 on up to GOMAXPROCS workers and returns
// the first error recorded. Once any invocation fails, no further indices
// are handed out; invocations already in flight run to completion. Results
// must be written into per-index slots by fn so that the caller can reduce
// them in index order, keeping floating-point reductions deterministic
// regardless of scheduling.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	observePool("foreach", n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	busy := busyWorkers()
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busy.Add(1)
			defer busy.Add(-1)
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Pairwise calls f(i, j) once for every unordered pair 0 <= i < j < n. The
// strict upper triangle is cut in row-major order ((0,1), (0,2), ...,
// (n-2,n-1)) into one contiguous range per worker, up to GOMAXPROCS of
// them. setup runs once in each worker and returns the pair function for
// that worker's range, so f may own scratch buffers that are expensive to
// allocate per pair and unsafe to share (e.g. a dtw.Calculator).
//
// Cancellation is cooperative: each worker refreshes ctx at a small stride
// of pairs and stops picking up pairs once any worker has seen it done (a
// single f call is never interrupted), and the context's error is
// returned. A nil error means every pair was visited.
func Pairwise(ctx context.Context, n int, setup func() func(i, j int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	total := n * (n - 1) / 2
	if total <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	observePool("pairwise", total, workers)
	var stopped atomic.Bool
	const stride = 16 // pairs between ctx.Err() refreshes per worker
	visit := func(lo, hi int) {
		f := setup()
		i, j := pairAt(n, lo)
		for k := lo; k < hi && !stopped.Load(); k++ {
			if (k-lo+1)%stride == 0 && ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			f(i, j)
			if j++; j == n {
				i++
				j = i + 1
			}
		}
	}
	if workers <= 1 {
		visit(0, total)
		return ctx.Err()
	}
	chunk := (total + workers - 1) / workers
	busy := busyWorkers()
	var wg sync.WaitGroup
	for lo := 0; lo < total; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			busy.Add(1)
			defer busy.Add(-1)
			visit(lo, hi)
		}(lo, min(lo+chunk, total))
	}
	wg.Wait()
	return ctx.Err()
}

// pairAt returns the k-th pair of the strict upper triangle of an n×n
// matrix in row-major order: the first pair of a worker's range.
func pairAt(n, k int) (i, j int) {
	for rowLen := n - 1; k >= rowLen && rowLen > 0; rowLen-- {
		k -= rowLen
		i++
	}
	return i, i + 1 + k
}
