package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	// A rate-limiting server advertising a 1s wait: the client must not
	// hammer it — the retry may arrive no earlier than the advertised
	// interval, even though its own backoff (1ms base) is far shorter.
	var calls atomic.Int32
	var firstCall, secondCall atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstCall.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeRateLimited, Error: "slow down"})
		default:
			secondCall.Store(time.Now().UnixNano())
			_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 0}})
		}
	}))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}))
	if _, err := client.Tasks(context.Background()); err != nil {
		t.Fatalf("rate-limited request not absorbed: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	waited := time.Duration(secondCall.Load() - firstCall.Load())
	if waited < time.Second {
		t.Fatalf("retry arrived after %v, before the advertised 1s Retry-After", waited)
	}
}

func TestClientRetries429WithRateLimitedCodeButNoHeader(t *testing.T) {
	// rate_limited without a Retry-After header still signals "try later".
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeRateLimited, Error: "slow down"})
			return
		}
		_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 0}})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	}))
	if _, err := client.Tasks(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

func TestClientDoesNotRetrySemantic429(t *testing.T) {
	// account_cap_reached is also a 429, but waiting will not clear it —
	// without a Retry-After hint the client must not retry it.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeAccountCapReached, Error: "cap"})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     5,
		RetryBaseDelay: time.Millisecond,
	}))
	_, err := client.Tasks(context.Background())
	if !errors.Is(err, ErrTooManyAccounts) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1", got)
	}
}

func TestClientBackoffAbortsOnContextCancel(t *testing.T) {
	// Cancellation mid-backoff must return promptly with the context
	// error, not sleep out the full (long) delay.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "60") // an hour-long nap if honored blindly
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeRateLimited, Error: "wait"})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient: srv.Client(),
		MaxRetries: 3,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.Tasks(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled backoff blocked for %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (cancel during the first backoff)", got)
	}
}

func TestClientRetriesTornBody(t *testing.T) {
	// A 200 whose body dies mid-transfer is an ack-was-lost case: the
	// client must retry rather than surface a decode error.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", "1024")
			_, _ = fmt.Fprint(w, `[{"id":`) // cut off mid-JSON
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // tear the connection
		}
		_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 7}})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}))
	tasks, err := client.Tasks(context.Background())
	if err != nil {
		t.Fatalf("torn body not retried: %v", err)
	}
	if len(tasks) != 1 || tasks[0].ID != 7 {
		t.Fatalf("tasks = %+v", tasks)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

func TestClientBreakerOpensAndFailsFast(t *testing.T) {
	// A persistently failing server: the breaker opens after the threshold
	// and subsequent calls fail locally without touching the network.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:       srv.Client(),
		MaxRetries:       0,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // stays open for the test's lifetime
	}))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Tasks(ctx); err == nil {
			t.Fatal("failing server must error")
		}
	}
	if st := client.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker state = %v after threshold failures", st)
	}
	before := calls.Load()
	_, err := client.Tasks(ctx)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
}

func TestClientBreakerRecoversViaProbe(t *testing.T) {
	// Server heals after two failures; a short cooldown lets the probe
	// through, which closes the circuit.
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 0}})
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:       srv.Client(),
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
	}))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, _ = client.Tasks(ctx)
	}
	if st := client.BreakerState(); st == BreakerClosed {
		t.Fatal("breaker still closed after threshold failures")
	}
	healthy.Store(true)
	time.Sleep(20 * time.Millisecond) // past the cooldown
	if _, err := client.Tasks(ctx); err != nil {
		t.Fatalf("probe after heal failed: %v", err)
	}
	if st := client.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker state = %v after successful probe", st)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		h    string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 2 ", 2 * time.Second},
		{"-1", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0}, // past date
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.h, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.h, got, tc.want)
		}
	}
}
