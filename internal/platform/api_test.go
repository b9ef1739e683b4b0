package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/obs"
)

// postRaw sends a raw JSON body and returns the status plus the decoded
// error body (zero-valued when the response is a success).
func postRaw(t *testing.T, srv *httptest.Server, path, body string) (int, ErrorResponse) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errBody ErrorResponse
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", path, err)
		}
	}
	return resp.StatusCode, errBody
}

func TestErrorBodiesCarryStableCodes(t *testing.T) {
	store := NewLocalStore(testTasks(1))
	store.SetMaxAccounts(1)
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)

	// Seed one account so the cap case below trips.
	status, _ := postRaw(t, srv, "/v1/submissions", `{"account":"a","task":0,"value":1}`)
	if status != http.StatusCreated {
		t.Fatalf("seed submission status = %d", status)
	}

	cases := []struct {
		name     string
		path     string
		body     string
		status   int
		code     string
		sentinel error
	}{
		{
			name:   "malformed JSON",
			path:   "/v1/submissions",
			body:   `{not json`,
			status: http.StatusBadRequest,
			code:   CodeMalformedRequest, sentinel: ErrMalformedRequest,
		},
		{
			name:   "unknown field",
			path:   "/v1/submissions",
			body:   `{"account":"a","task":0,"value":1,"bogus":true}`,
			status: http.StatusBadRequest,
			code:   CodeMalformedRequest, sentinel: ErrMalformedRequest,
		},
		{
			// JSON cannot carry NaN/Inf literals, so a non-finite value
			// arrives as an out-of-range float and must die in decode.
			name:   "out-of-range number",
			path:   "/v1/submissions",
			body:   `{"account":"a","task":0,"value":1e999}`,
			status: http.StatusBadRequest,
			code:   CodeMalformedRequest, sentinel: ErrMalformedRequest,
		},
		{
			name:   "non-finite fingerprint feature",
			path:   "/v1/fingerprints",
			body:   `{"account":"a","features":[1,2,1e999]}`,
			status: http.StatusBadRequest,
			code:   CodeMalformedRequest, sentinel: ErrMalformedRequest,
		},
		{
			name:   "unknown aggregation method",
			path:   "/v1/aggregate",
			body:   `{"method":"quantum"}`,
			status: http.StatusBadRequest,
			code:   CodeUnknownAggregation, sentinel: ErrUnknownAggregation,
		},
		{
			name:   "fingerprint with both raw capture and features",
			path:   "/v1/fingerprints",
			body:   `{"account":"a","sample_rate":100,"accel_x":[1],"accel_y":[1],"accel_z":[1],"gyro_x":[1],"gyro_y":[1],"gyro_z":[1],"features":[1,2]}`,
			status: http.StatusBadRequest,
			code:   CodeBadFingerprint, sentinel: ErrBadFingerprint,
		},
		{
			name:   "unknown task",
			path:   "/v1/submissions",
			body:   `{"account":"a","task":9,"value":1}`,
			status: http.StatusBadRequest,
			code:   CodeUnknownTask, sentinel: ErrUnknownTask,
		},
		{
			name:   "empty account",
			path:   "/v1/submissions",
			body:   `{"account":"","task":0,"value":1}`,
			status: http.StatusBadRequest,
			code:   CodeEmptyAccount, sentinel: ErrEmptyAccount,
		},
		{
			name:   "duplicate report",
			path:   "/v1/submissions",
			body:   `{"account":"a","task":0,"value":2}`,
			status: http.StatusConflict,
			code:   CodeDuplicateReport, sentinel: ErrDuplicateReport,
		},
		{
			name:   "account cap reached",
			path:   "/v1/submissions",
			body:   `{"account":"overflow","task":0,"value":1}`,
			status: http.StatusTooManyRequests,
			code:   CodeAccountCapReached, sentinel: ErrTooManyAccounts,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRaw(t, srv, tc.path, tc.body)
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
			if body.Code != tc.code {
				t.Errorf("code = %q, want %q", body.Code, tc.code)
			}
			if body.Error == "" {
				t.Error("error message missing")
			}
			// The client must surface the same failure as the typed
			// sentinel — the whole point of the code contract.
			if !errors.Is(&APIError{Code: body.Code, Status: status}, tc.sentinel) {
				t.Errorf("code %q does not unwrap to %v", body.Code, tc.sentinel)
			}
		})
	}
}

func TestClientSurfacesTypedErrors(t *testing.T) {
	store := NewLocalStore(testTasks(1))
	store.SetMaxAccounts(1)
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))
	ctx := context.Background()

	if _, err := client.Aggregate(ctx, "quantum"); !errors.Is(err, ErrUnknownAggregation) {
		t.Errorf("unknown aggregation over HTTP: %v", err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "b", Task: 0, Value: 1, Time: at(1)}); !errors.Is(err, ErrTooManyAccounts) {
		t.Errorf("account cap over HTTP: %v", err)
	}
	err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: 2, Time: at(2)})
	if !errors.Is(err, ErrDuplicateReport) {
		t.Errorf("duplicate over HTTP: %v", err)
	}
	// The structured error is also reachable for status/code inspection.
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v does not expose *APIError", err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Code != CodeDuplicateReport {
		t.Errorf("APIError = %+v", apiErr)
	}
}

func TestZeroEstimateSurvivesTheWire(t *testing.T) {
	// A legitimate estimate of exactly 0 must round-trip: the old
	// `omitempty` on TruthDTO.Value dropped it, making 0 indistinguishable
	// from "no data" on the client.
	raw, err := json.Marshal(TruthDTO{Task: 3, Value: 0, Estimated: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"value":0`) {
		t.Fatalf("marshalled TruthDTO omits zero value: %s", raw)
	}

	_, client := newTestServer(t, 1)
	ctx := context.Background()
	// Reports averaging exactly 0.
	for i, v := range []float64{-5, 0, 5} {
		if err := client.Submit(ctx, SubmissionRequest{Account: string(rune('a' + i)), Task: 0, Value: v, Time: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Aggregate(ctx, "mean")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truths[0].Estimated {
		t.Fatal("zero-valued estimate lost its Estimated flag")
	}
	if resp.Truths[0].Value != 0 {
		t.Errorf("estimate = %v, want exactly 0", resp.Truths[0].Value)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	// Flaky upstream: two 500s, then success. The client must absorb the
	// transient failures within its retry budget.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeInternal, Error: "transient"})
			return
		}
		_ = json.NewEncoder(w).Encode([]TaskDTO{{ID: 0, Name: "T1"}})
	}))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}))
	tasks, err := client.Tasks(context.Background())
	if err != nil {
		t.Fatalf("flaky server not absorbed: %v", err)
	}
	if len(tasks) != 1 {
		t.Fatalf("tasks = %+v", tasks)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

func TestClientGivesUpAfterRetryBudget(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}))
	_, err := client.Tasks(context.Background())
	if err == nil {
		t.Fatal("persistent 503 must eventually fail")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("err = %v", err)
	}
	if got := calls.Load(); got != 3 { // initial + 2 retries
		t.Errorf("server saw %d calls, want 3", got)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	// 4xx means the request is wrong; retrying would just repeat the
	// rejection (and double-submit reports under ambiguity).
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeUnknownTask, Error: "nope"})
	}))
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, WithConfig(ClientConfig{
		HTTPClient:     srv.Client(),
		MaxRetries:     5,
		RetryBaseDelay: time.Millisecond,
	}))
	err := client.Submit(context.Background(), SubmissionRequest{Account: "a", Task: 9, Value: 1})
	if !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want exactly 1 (no retries on 4xx)", got)
	}
}

func TestClientRetriesConnectionErrors(t *testing.T) {
	// A server that is down entirely: the client should attempt
	// MaxRetries+1 times before giving up. Use a port from a closed
	// listener so the dial fails fast.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	client := NewClient(url, WithConfig(ClientConfig{
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	}))
	start := time.Now()
	_, err := client.Tasks(context.Background())
	if err == nil {
		t.Fatal("dead server must error")
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("retry loop took %v, backoff not bounded", time.Since(start))
	}

	// A cancelled context aborts immediately instead of burning retries.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Tasks(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx err = %v", err)
	}
}

func TestMetricsEndpointsAfterTraffic(t *testing.T) {
	// A hermetic registry so the HTTP counters assert exact values; the
	// framework/library metrics go to obs.Default() and are checked as
	// before/after deltas since other tests share that registry.
	reg := obs.NewRegistry()
	store := NewLocalStore(testTasks(2))
	srv := httptest.NewServer(NewServerWithRegistry(store, nil, reg))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))
	ctx := context.Background()

	loopSecondsBefore := obs.Default().Histogram("framework.truth_loop_seconds").Snapshot().Count
	crhRunsBefore := obs.Default().Counter("truth.crh.runs").Value()

	for i, v := range []float64{-70, -71, -69} {
		if err := client.Submit(ctx, SubmissionRequest{Account: string(rune('a' + i)), Task: 0, Value: v, Time: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Aggregate(ctx, "td-ts"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Aggregate(ctx, "crh"); err != nil {
		t.Fatal(err)
	}

	// JSON snapshot via the typed client.
	snap, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["http.post_v1_submissions.requests"]; got != 3 {
		t.Errorf("submissions counter = %d, want 3", got)
	}
	if got := snap.Counters["http.post_v1_aggregate.requests"]; got != 2 {
		t.Errorf("aggregate counter = %d, want 2", got)
	}
	lat, ok := snap.Histograms["http.post_v1_aggregate.latency_seconds"]
	if !ok || lat.Count != 2 || lat.Sum <= 0 {
		t.Errorf("aggregate latency histogram = %+v, ok=%v", lat, ok)
	}

	// Library instrumentation reached the default registry.
	if got := obs.Default().Histogram("framework.truth_loop_seconds").Snapshot().Count; got <= loopSecondsBefore {
		t.Errorf("framework.truth_loop_seconds count %d did not grow past %d", got, loopSecondsBefore)
	}
	if got := obs.Default().Counter("truth.crh.runs").Value(); got <= crhRunsBefore {
		t.Errorf("truth.crh.runs %d did not grow past %d", got, crhRunsBefore)
	}

	// Prometheus text endpoint.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"http_post_v1_submissions_requests 3",
		"http_post_v1_aggregate_requests 2",
		`http_post_v1_aggregate_latency_seconds{quantile="0.5"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Error responses land in the 4xx counter.
	if _, err := client.Aggregate(ctx, "quantum"); err == nil {
		t.Fatal("expected error")
	}
	if got := reg.Counter("http.post_v1_aggregate.errors_4xx").Value(); got != 1 {
		t.Errorf("errors_4xx = %d, want 1", got)
	}
}

func TestMetricsJSONIsWellFormed(t *testing.T) {
	// Idle routes have empty histograms; the snapshot must still be
	// valid JSON (no NaN quantiles).
	reg := obs.NewRegistry()
	store := NewLocalStore(testTasks(1))
	srv := httptest.NewServer(NewServerWithRegistry(store, nil, reg))
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
}

func ExampleClient_Metrics() {
	store := NewLocalStore(testTasks(1))
	srv := httptest.NewServer(NewServerWithRegistry(store, nil, obs.NewRegistry()))
	defer srv.Close()
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))

	_, _ = client.Tasks(context.Background())
	snap, _ := client.Metrics(context.Background())
	fmt.Println(snap.Counters["http.get_v1_tasks.requests"])
	// Output: 1
}
