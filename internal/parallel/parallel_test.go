package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn under the given GOMAXPROCS setting and restores the
// previous value. Goroutines multiplex fine onto fewer cores, so the
// parallel paths are exercised even on single-CPU machines.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			const n = 50
			hits := make([]int32, n)
			err := ForEach(n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("procs=%d: index %d ran %d times", procs, i, h)
				}
			}
		})
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			err := ForEach(8, func(i int) error {
				if i == 3 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("procs=%d: error not propagated: %v", procs, err)
			}
		})
	}
	if err := ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero indices should be a no-op: %v", err)
	}
}

// TestForEachStopsDispatchAfterError asserts early termination: once an
// invocation fails, no further work is handed out, so the number of calls
// stays near the worker count instead of reaching n.
func TestForEachStopsDispatchAfterError(t *testing.T) {
	boom := errors.New("boom")

	// Sequential path: exactly one call past the failing index, i.e. the
	// failing call itself is the last.
	withProcs(t, 1, func() {
		var calls int32
		err := ForEach(1000, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if i == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("error not propagated: %v", err)
		}
		if calls != 3 {
			t.Errorf("sequential calls = %d, want 3", calls)
		}
	})

	// Parallel path: the first dispatched index fails immediately while
	// every other invocation stalls, so by the time the stalled workers
	// finish their single in-flight item the failure flag is long set and
	// the call count stays bounded by a few multiples of the worker count.
	const procs = 4
	withProcs(t, procs, func() {
		const n = 10000
		var calls int32
		err := ForEach(n, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if i == 0 {
				return boom
			}
			time.Sleep(10 * time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("error not propagated: %v", err)
		}
		if c := atomic.LoadInt32(&calls); c >= n/10 {
			t.Errorf("calls after error = %d, dispatch did not stop early (n=%d)", c, n)
		}
	})
}

func TestPairwiseCoversTriangleOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 3, 7, 20} {
			withProcs(t, procs, func() {
				hits := make([][]int32, n)
				for i := range hits {
					hits[i] = make([]int32, n)
				}
				err := Pairwise(context.Background(), n, func() func(i, j int) {
					return func(i, j int) {
						if i < 0 || i >= j || j >= n {
							t.Errorf("bad pair (%d,%d)", i, j)
							return
						}
						atomic.AddInt32(&hits[i][j], 1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if h := hits[i][j]; h != 1 {
							t.Errorf("procs=%d n=%d: pair (%d,%d) visited %d times", procs, n, i, j, h)
						}
					}
				}
			})
		}
	}
}

func TestPairwiseWorkersSetupPerWorker(t *testing.T) {
	withProcs(t, 4, func() {
		var setups int32
		var mu sync.Mutex
		seen := map[[2]int]bool{}
		err := Pairwise(context.Background(), 100, func() func(i, j int) {
			atomic.AddInt32(&setups, 1)
			return func(i, j int) {
				mu.Lock()
				seen[[2]int{i, j}] = true
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := atomic.LoadInt32(&setups); s < 1 || s > 4 {
			t.Errorf("setup ran %d times, want 1..4", s)
		}
		if want := 100 * 99 / 2; len(seen) != want {
			t.Errorf("visited %d pairs, want %d", len(seen), want)
		}
	})
}

// TestPairIndexRoundTrip checks pairAt, which maps a worker's first row-major
// rank back to its pair, against the row-major enumeration.
func TestPairIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 11} {
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				gi, gj := pairAt(n, k)
				if gi != i || gj != j {
					t.Fatalf("pairAt(%d,%d) = (%d,%d), want (%d,%d)", n, k, gi, gj, i, j)
				}
				k++
			}
		}
		if want := n * (n - 1) / 2; k != want {
			t.Fatalf("n=%d: enumerated %d pairs, want %d", n, k, want)
		}
	}
}
