package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/mcs"
)

// TestClientJitterStreamsDiffer: two clients constructed back to back must
// not share a backoff-jitter stream. The old time.Now().UnixNano() seed
// made a fleet of agents started together back off in lockstep —
// synchronized retry storms against an overloaded platform. With the
// crypto/rand seed the streams are independent (eight identical draws in a
// row is a ~2^-400 event, not flake territory).
func TestClientJitterStreamsDiffer(t *testing.T) {
	c1 := NewClient("http://localhost:0")
	c2 := NewClient("http://localhost:0")
	identical := true
	for i := 0; i < 8; i++ {
		c1.mu.Lock()
		v1 := c1.rng.Float64()
		c1.mu.Unlock()
		c2.mu.Lock()
		v2 := c2.rng.Float64()
		c2.mu.Unlock()
		if v1 != v2 {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("two clients produced identical jitter streams: RNG seed is not per-client")
	}
}

// connCountingListener wraps a listener and counts accepted connections.
// If the client leaks response bodies, the transport cannot reuse the
// connection and every retry dials a fresh one — the count gives it away.
type connCountingListener struct {
	net.Listener
	opened atomic.Int32
}

func (l *connCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.opened.Add(1)
	}
	return c, err
}

// TestClientRetryReusesConnections: the retry paths (plain 5xx, 429 with a
// rate-limited code, and the no-Retry-After branch) must drain and close
// every response body they abandon, so the transport keeps reusing one
// connection across the whole retry sequence.
func TestClientRetryReusesConnections(t *testing.T) {
	var calls atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1: // retryable 5xx with a body to leak
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeInternal, Error: "transient"})
		case 2: // retryable 429, rate_limited code, no Retry-After header
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeRateLimited, Error: "slow down"})
		default:
			_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 3}})
		}
	})
	srv := httptest.NewUnstartedServer(handler)
	counting := &connCountingListener{Listener: srv.Listener}
	srv.Listener = counting
	srv.Start()
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		MaxRetries:     3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	}))
	tasks, err := client.Tasks(context.Background())
	if err != nil {
		t.Fatalf("retry sequence failed: %v", err)
	}
	if len(tasks) != 1 || tasks[0].ID != 3 {
		t.Fatalf("tasks = %+v", tasks)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := counting.opened.Load(); got != 1 {
		t.Errorf("retries opened %d connections, want 1 (abandoned bodies not drained, so the transport could not reuse the connection)", got)
	}
}

// TestClientDrainBoundedOnHugeBody: a retryable error with an oversized
// body must not stall the retry loop reading megabytes of junk — the drain
// is bounded, at the cost of closing (not reusing) that one connection.
func TestClientDrainBoundedOnHugeBody(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			junk := make([]byte, 1<<20) // 4x the drain cap
			_, _ = w.Write(junk)
			return
		}
		_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 1}})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
	}))
	start := time.Now()
	if _, err := client.Tasks(context.Background()); err != nil {
		t.Fatalf("retry after huge error body failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain of oversized body took %v", elapsed)
	}
}

// TestReplayPaceCancelPrompt: cancelling mid-pace-sleep must abort the
// replay promptly, not sleep out the scaled gap.
func TestReplayPaceCancelPrompt(t *testing.T) {
	_, client := newTestServer(t, 1)
	ds := mcs.NewDataset(1)
	ds.AddAccount(mcs.Account{ID: "a", Observations: []mcs.Observation{
		{Task: 0, Value: -80, Time: at(0)},
	}})
	ds.AddAccount(mcs.Account{ID: "b", Observations: []mcs.Observation{
		{Task: 0, Value: -81, Time: at(0).Add(time.Hour)}, // scaled: a 6-minute nap
	}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	n, err := ReplayDataset(ctx, client, ds, ReplayOptions{Pace: 10})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled pace sleep blocked for %v", elapsed)
	}
	if n != 1 {
		t.Errorf("submitted %d events before cancel, want 1", n)
	}
}

// TestReplayPaceWithBatch: paced replay through the batch path — every
// event lands, OnEvent fires per report, and the replayed platform holds
// the full dataset.
func TestReplayPaceWithBatch(t *testing.T) {
	store := NewLocalStore(testTasks(2))
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))

	ds := mcs.NewDataset(2)
	for a := 0; a < 3; a++ {
		acct := mcs.Account{ID: fmt.Sprintf("acct%d", a), Fingerprint: testFeatures(float64(a))}
		for task := 0; task < 2; task++ {
			acct.Observations = append(acct.Observations, mcs.Observation{
				Task: task, Value: -80 - float64(a), Time: at(a*2 + task),
			})
		}
		ds.AddAccount(acct)
	}
	var events int
	n, err := ReplayDataset(context.Background(), client, ds, ReplayOptions{
		Pace:      1e9, // paced, but effectively instant
		BatchSize: 4,
		OnEvent:   func(int) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || events != 6 {
		t.Fatalf("replayed %d events (callbacks %d), want 6", n, events)
	}
	got, _ := store.Dataset(context.Background())
	if got.NumAccounts() != 3 {
		t.Fatalf("accounts = %d, want 3", got.NumAccounts())
	}
	for i := range got.Accounts {
		if len(got.Accounts[i].Fingerprint) == 0 {
			t.Errorf("account %q lost its fingerprint through the batch path", got.Accounts[i].ID)
		}
		if len(got.Accounts[i].Observations) != 2 {
			t.Errorf("account %q has %d observations, want 2", got.Accounts[i].ID, len(got.Accounts[i].Observations))
		}
	}
}
