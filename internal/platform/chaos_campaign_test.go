package platform

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/chaos"
	"sybiltd/internal/obs"
)

// ackedSubmission is one report the platform acknowledged (201, or a
// duplicate-report rejection on retry — which proves the original write
// landed before its ack was torn).
type ackedSubmission struct {
	account string
	task    int
	value   float64
}

// TestChaosCampaignZeroAckedLoss drives a concurrent submission campaign
// through the fault injector — connection drops, injected 5xx bursts,
// injected rate limiting, and torn response bodies — against a platform
// running with overload protection enabled, then verifies the durability
// contract end to end: every acknowledged submission is present in the
// final dataset with the right value. Unacknowledged submissions may or
// may not have landed (the fault fired before or after the write); what
// is never allowed is an acknowledged write that vanished.
func TestChaosCampaignZeroAckedLoss(t *testing.T) {
	const (
		numAccounts = 8
		numTasks    = 4
	)
	store := NewLocalStore(testTasks(numTasks))
	s := NewServerWithOptions(store, ServerOptions{
		Registry: obs.NewRegistry(),
		Limits: ServerLimits{
			MaxConcurrent:  8,
			MaxQueue:       32,
			QueueTimeout:   2 * time.Second,
			RequestTimeout: 10 * time.Second,
		},
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	plan := chaos.Plan{
		Seed: 7,
		Default: chaos.Fault{
			DropProb:     0.15,
			Error5xxProb: 0.10,
			Error429Prob: 0.03,
			RetryAfter:   time.Second,
			TruncateProb: 0.10,
			Latency:      time.Millisecond,
			Jitter:       2 * time.Millisecond,
		},
	}
	faulty := chaos.NewTransport(srv.Client().Transport, plan)

	workersBusyBefore := obs.Default().Gauge("parallel.workers_busy").Value()

	var (
		mu    sync.Mutex
		acked []ackedSubmission
	)
	var wg sync.WaitGroup
	for a := 0; a < numAccounts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			// One client per account, like real agents; generous retry
			// budget because the fault rates are high by design.
			client := NewClient(srv.URL, WithConfig(ClientConfig{
				HTTPClient:     &http.Client{Transport: faulty},
				MaxRetries:     6,
				RetryBaseDelay: time.Millisecond,
				RetryMaxDelay:  20 * time.Millisecond,
			}))
			account := fmt.Sprintf("acct-%d", a)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for task := 0; task < numTasks; task++ {
				value := float64(-70 - a - task)
				err := client.Submit(ctx, SubmissionRequest{
					Account: account, Task: task, Value: value, Time: at(a*numTasks + task),
				})
				// A duplicate rejection can only mean an earlier attempt
				// was written but its ack was torn: the data is in.
				if err == nil || errors.Is(err, ErrDuplicateReport) {
					mu.Lock()
					acked = append(acked, ackedSubmission{account, task, value})
					mu.Unlock()
				}
			}
		}(a)
	}
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("no submission survived the fault plan; campaign proves nothing")
	}
	t.Logf("chaos stats: %+v; %d/%d submissions acknowledged",
		faulty.Stats(), len(acked), numAccounts*numTasks)
	if st := faulty.Stats(); st.Drops == 0 && st.Injected5xx == 0 && st.Truncations == 0 {
		t.Fatal("fault injector fired nothing; the campaign was not chaotic")
	}

	// Aggregation still answers through the faults (retries absorb torn
	// bodies; the injector never sees the platform's own shed responses).
	aggClient := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     &http.Client{Transport: faulty},
		MaxRetries:     8,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := aggClient.Aggregate(ctx, "td-ts"); err != nil {
		// Tolerate only a residual injected fault, never a platform error.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 {
			t.Fatalf("aggregation failed with a platform rejection: %v", err)
		}
		t.Logf("aggregate lost to residual chaos (acceptable): %v", err)
	}

	// Verify against the source of truth over a CLEAN connection: every
	// acknowledged submission must be present with its exact value.
	clean := NewClient(srv.URL, WithHTTPClient(srv.Client()))
	ds, err := clean.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byAccount := make(map[string]map[int]float64)
	for _, acct := range ds.Accounts {
		vals := make(map[int]float64)
		for _, o := range acct.Observations {
			vals[o.Task] = o.Value
		}
		byAccount[acct.ID] = vals
	}
	for _, a := range acked {
		vals, ok := byAccount[a.account]
		if !ok {
			t.Fatalf("ACKED DATA LOST: account %s missing from final dataset", a.account)
		}
		got, ok := vals[a.task]
		if !ok {
			t.Fatalf("ACKED DATA LOST: %s task %d missing from final dataset", a.account, a.task)
		}
		if got != a.value {
			t.Fatalf("ACKED DATA CORRUPTED: %s task %d = %v, want %v", a.account, a.task, got, a.value)
		}
	}

	// No stranded aggregation workers: the parallel pools drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if obs.Default().Gauge("parallel.workers_busy").Value() <= workersBusyBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parallel.workers_busy = %d did not return to %d — stranded workers",
				obs.Default().Gauge("parallel.workers_busy").Value(), workersBusyBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosBatchedCampaignZeroAckedLoss is the torn-batch variant: the
// crowd submits through POST /v1/reports:batch against a DURABLE platform
// running group commit, through the same fault injector. An item counts as
// acknowledged when its envelope returned and the item was accepted — or
// was rejected as a duplicate, which proves an earlier torn attempt
// landed. After the campaign the platform is killed (no final snapshot)
// and recovered: every acknowledged item must survive with its exact
// value, batch boundaries notwithstanding.
func TestChaosBatchedCampaignZeroAckedLoss(t *testing.T) {
	const (
		numAccounts = 6
		numTasks    = 4
		batchSize   = 3
	)
	dir := t.TempDir()
	store, d, _, err := OpenDurable(dir, testTasks(numTasks), DurableOptions{
		CommitLinger:   500 * time.Microsecond,
		CommitMaxBatch: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithOptions(store, ServerOptions{
		Registry: obs.NewRegistry(),
		Limits: ServerLimits{
			MaxConcurrent:  16,
			MaxQueue:       32,
			QueueTimeout:   2 * time.Second,
			RequestTimeout: 10 * time.Second,
		},
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	faulty := chaos.NewTransport(srv.Client().Transport, chaos.Plan{
		Seed: 23,
		Default: chaos.Fault{
			DropProb:     0.15,
			Error5xxProb: 0.10,
			TruncateProb: 0.10,
			Latency:      time.Millisecond,
			Jitter:       2 * time.Millisecond,
		},
	})

	var (
		mu    sync.Mutex
		acked []ackedSubmission
	)
	var wg sync.WaitGroup
	for a := 0; a < numAccounts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			client := NewClient(srv.URL, WithConfig(ClientConfig{
				HTTPClient:     &http.Client{Transport: faulty},
				MaxRetries:     6,
				RetryBaseDelay: time.Millisecond,
				RetryMaxDelay:  20 * time.Millisecond,
			}))
			account := fmt.Sprintf("bacct-%d", a)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for start := 0; start < numTasks; start += batchSize {
				end := start + batchSize
				if end > numTasks {
					end = numTasks
				}
				reports := make([]SubmissionRequest, 0, end-start)
				for task := start; task < end; task++ {
					reports = append(reports, SubmissionRequest{
						Account: account, Task: task, Value: float64(-60 - a - task),
						Time: at(a*numTasks + task),
					})
				}
				results, err := client.SubmitBatch(ctx, reports)
				if err != nil {
					continue // whole envelope lost to chaos: nothing acked
				}
				for i, res := range results {
					itemErr := res.Err()
					// Accepted, or duplicate (an earlier torn attempt wrote it).
					if itemErr == nil || errors.Is(itemErr, ErrDuplicateReport) {
						mu.Lock()
						acked = append(acked, ackedSubmission{reports[i].Account, reports[i].Task, reports[i].Value})
						mu.Unlock()
					}
				}
			}
		}(a)
	}
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("no batched submission survived the fault plan; campaign proves nothing")
	}
	st := faulty.Stats()
	t.Logf("chaos stats: %+v; %d/%d items acknowledged", st, len(acked), numAccounts*numTasks)
	if st.Drops == 0 && st.Injected5xx == 0 && st.Truncations == 0 {
		t.Fatal("fault injector fired nothing; the campaign was not chaotic")
	}

	// Kill -9: close the WAL underneath without a final snapshot, then
	// recover from disk alone.
	srv.Close()
	if err := d.w.Close(); err != nil {
		t.Fatal(err)
	}
	store2, d2, stats, err := OpenDurable(dir, testTasks(numTasks), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	t.Logf("recovered: %d WAL records replayed, %d skipped", stats.RecordsReplayed, stats.RecordsSkipped)

	ds, _ := store2.Dataset(context.Background())
	byAccount := make(map[string]map[int]float64)
	for _, acct := range ds.Accounts {
		vals := make(map[int]float64)
		for _, o := range acct.Observations {
			vals[o.Task] = o.Value
		}
		byAccount[acct.ID] = vals
	}
	for _, a := range acked {
		vals, ok := byAccount[a.account]
		if !ok {
			t.Fatalf("ACKED DATA LOST: account %s missing after recovery", a.account)
		}
		got, ok := vals[a.task]
		if !ok {
			t.Fatalf("ACKED DATA LOST: %s task %d missing after recovery", a.account, a.task)
		}
		if got != a.value {
			t.Fatalf("ACKED DATA CORRUPTED: %s task %d = %v, want %v", a.account, a.task, got, a.value)
		}
	}
}

// TestChaosOutageOpensBreakerThenHeals stages a total outage via the
// injector, watches the client's circuit breaker open and fail fast, then
// heals the plan and watches the breaker recover through its probe.
func TestChaosOutageOpensBreakerThenHeals(t *testing.T) {
	store := NewLocalStore(testTasks(1))
	srv := httptest.NewServer(NewServerWithOptions(store, ServerOptions{Registry: obs.NewRegistry()}))
	t.Cleanup(srv.Close)

	faulty := chaos.NewTransport(srv.Client().Transport, chaos.Plan{})
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:       &http.Client{Transport: faulty},
		MaxRetries:       0,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	}))
	ctx := context.Background()

	// Healthy baseline.
	if _, err := client.Tasks(ctx); err != nil {
		t.Fatalf("healthy baseline failed: %v", err)
	}

	// Outage: everything drops.
	faulty.SetPlan(chaos.Plan{Default: chaos.Fault{DropProb: 1}})
	for i := 0; i < 3; i++ {
		if _, err := client.Tasks(ctx); err == nil {
			t.Fatal("outage produced a success")
		}
	}
	if st := client.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %v after outage, want open", st)
	}
	// While open, calls fail locally: the injector sees no new requests.
	before := faulty.Stats().Requests
	if _, err := client.Tasks(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if faulty.Stats().Requests != before {
		t.Fatal("open breaker still hit the network")
	}

	// Heal and wait out the cooldown: the probe closes the circuit.
	faulty.SetPlan(chaos.Plan{})
	time.Sleep(30 * time.Millisecond)
	if _, err := client.Tasks(ctx); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if st := client.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %v after recovery, want closed", st)
	}
}

// TestChaosMiddlewareAgainstRealServer runs the server-side injector in
// front of the real platform handler: the client's retry loop must absorb
// the injected faults without double-writing (the duplicate guard holds).
func TestChaosMiddlewareAgainstRealServer(t *testing.T) {
	store := NewLocalStore(testTasks(2))
	inner := NewServerWithOptions(store, ServerOptions{Registry: obs.NewRegistry()})
	srv := httptest.NewServer(chaos.Plan{
		Seed:    11,
		Default: chaos.Fault{DropProb: 0.2, Error5xxProb: 0.2},
	}.Middleware(inner))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     8,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
	}))
	ctx := context.Background()
	okCount := 0
	for i := 0; i < 10; i++ {
		err := client.Submit(ctx, SubmissionRequest{
			Account: fmt.Sprintf("mw-%d", i), Task: i % 2, Value: float64(i), Time: at(i),
		})
		if err == nil || errors.Is(err, ErrDuplicateReport) {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("nothing survived the middleware faults")
	}
	// The store never saw a double write despite retried submissions.
	ds, _ := store.Dataset(context.Background())
	for _, acct := range ds.Accounts {
		seen := map[int]bool{}
		for _, o := range acct.Observations {
			if seen[o.Task] {
				t.Fatalf("account %s double-wrote task %d under retries", acct.ID, o.Task)
			}
			seen[o.Task] = true
		}
	}
}
