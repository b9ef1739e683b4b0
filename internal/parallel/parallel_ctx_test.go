package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// visitEach adapts a shared pair function to Pairwise's per-worker setup.
func visitEach(f func(i, j int)) func() func(i, j int) {
	return func() func(i, j int) { return f }
}

func TestPairwiseCtxCompleteMatrixOnNilError(t *testing.T) {
	const n = 40
	var visited [n][n]atomic.Int32
	if err := Pairwise(context.Background(), n, visitEach(func(i, j int) {
		visited[i][j].Add(1)
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got := visited[i][j].Load(); got != 1 {
				t.Fatalf("pair (%d,%d) visited %d times, want exactly 1", i, j, got)
			}
		}
	}
}

func TestPairwiseCtxStopsOnCancel(t *testing.T) {
	// A large triangle with a slow pair function: cancellation mid-run
	// must stop the workers well before all pairs are visited, and the
	// call must return the context error rather than blocking.
	const n = 256 // 32640 pairs
	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- Pairwise(ctx, n, visitEach(func(i, j int) {
			visited.Add(1)
			time.Sleep(50 * time.Microsecond)
		}))
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Pairwise did not return after cancellation — stranded workers")
	}
	if got := visited.Load(); got >= n*(n-1)/2 {
		t.Fatalf("all %d pairs visited despite cancellation", got)
	}
}

func TestPairwiseWorkersCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var visited atomic.Int64
	err := Pairwise(ctx, 100, visitEach(func(i, j int) { visited.Add(1) }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if visited.Load() != 0 {
		t.Fatalf("pre-cancelled context still visited %d pairs", visited.Load())
	}
}

func TestPairwiseCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	err := Pairwise(ctx, 512, visitEach(func(i, j int) {
		time.Sleep(20 * time.Microsecond)
	}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
