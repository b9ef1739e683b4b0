package platform

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"sybiltd/internal/fingerprint"
)

// storeSuite is the behavioral contract test for the Store interface:
// every implementation the package ships must pass it unchanged. It runs
// against LocalStore directly and against RemoteStore fronting a real
// HTTP server, which is what guarantees the in-process and over-the-wire
// semantics never drift apart.
func storeSuite(t *testing.T, name string, newStore func(t *testing.T, numTasks int) Store) {
	ctx := context.Background()

	t.Run(name+"/tasks", func(t *testing.T) {
		s := newStore(t, 3)
		tasks, err := s.Tasks(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != 3 {
			t.Fatalf("Tasks = %d, want 3", len(tasks))
		}
	})

	t.Run(name+"/submit and dataset", func(t *testing.T) {
		s := newStore(t, 2)
		if err := s.Submit(ctx, "alice", 0, -80, at(0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, "alice", 1, -70, at(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, "bob", 0, -82, at(2)); err != nil {
			t.Fatal(err)
		}
		ds, err := s.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ds.NumAccounts() != 2 || ds.NumTasks() != 2 {
			t.Fatalf("dataset = %d accounts / %d tasks", ds.NumAccounts(), ds.NumTasks())
		}
		if v, ok := ds.Value(0, 1); !ok || v != -70 {
			t.Errorf("alice task 1 = %v, %v", v, ok)
		}
	})

	t.Run(name+"/submit rejections", func(t *testing.T) {
		s := newStore(t, 2)
		if err := s.Submit(ctx, "", 0, 1, at(0)); !errors.Is(err, ErrEmptyAccount) {
			t.Errorf("empty account: %v", err)
		}
		if err := s.Submit(ctx, "a", 9, 1, at(0)); !errors.Is(err, ErrUnknownTask) {
			t.Errorf("unknown task: %v", err)
		}
		if err := s.Submit(ctx, "a", 0, math.NaN(), at(0)); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("NaN value: %v", err)
		}
		if err := s.Submit(ctx, "a", 0, math.Inf(1), at(0)); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("Inf value: %v", err)
		}
		if err := s.Submit(ctx, "a", 0, 1, at(0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, "a", 0, 2, at(1)); !errors.Is(err, ErrDuplicateReport) {
			t.Errorf("duplicate: %v", err)
		}
	})

	t.Run(name+"/submit batch positional", func(t *testing.T) {
		s := newStore(t, 2)
		if err := s.Submit(ctx, "seed", 0, 1, at(0)); err != nil {
			t.Fatal(err)
		}
		items := []BatchSubmission{
			{Account: "w1", Task: 0, Value: 1, At: at(1)},
			{Account: "seed", Task: 0, Value: 2, At: at(1)},        // duplicate
			{Account: "w2", Task: 9, Value: 3, At: at(1)},          // unknown task
			{Account: "", Task: 0, Value: 4, At: at(1)},            // empty account
			{Account: "w3", Task: 1, Value: math.NaN(), At: at(1)}, // non-finite
			{Account: "w4", Task: 1, Value: 5, At: at(1)},
		}
		errs := s.SubmitBatch(ctx, items)
		if len(errs) != len(items) {
			t.Fatalf("%d results for %d items", len(errs), len(items))
		}
		if errs[0] != nil || errs[5] != nil {
			t.Errorf("valid items rejected: %v / %v", errs[0], errs[5])
		}
		for i, want := range map[int]error{
			1: ErrDuplicateReport,
			2: ErrUnknownTask,
			3: ErrEmptyAccount,
			4: ErrMalformedRequest,
		} {
			if !errors.Is(errs[i], want) {
				t.Errorf("item %d = %v, want %v", i, errs[i], want)
			}
		}
		empty := s.SubmitBatch(ctx, nil)
		if len(empty) != 0 {
			t.Errorf("empty batch returned %d results", len(empty))
		}
	})

	t.Run(name+"/fingerprints", func(t *testing.T) {
		s := newStore(t, 1)
		if err := s.RecordFingerprintFeatures(ctx, "alice", testFeatures(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordFingerprintFeatures(ctx, "", []float64{1}); !errors.Is(err, ErrEmptyAccount) {
			t.Errorf("empty account: %v", err)
		}
		ds, err := s.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Accounts) != 1 || len(ds.Accounts[0].Fingerprint) != fingerprint.VectorLen {
			t.Errorf("fingerprint not in dataset: %+v", ds.Accounts)
		}
	})

	t.Run(name+"/aggregate", func(t *testing.T) {
		s := newStore(t, 1)
		for i, v := range []float64{10, 12, 11} {
			if err := s.Submit(ctx, string(rune('a'+i)), 0, v, at(i)); err != nil {
				t.Fatal(err)
			}
		}
		res, unc, err := s.Aggregate(ctx, "median")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Truths) != 1 || res.Truths[0] != 11 {
			t.Errorf("median = %v", res.Truths)
		}
		if len(unc) != len(res.Truths) {
			t.Errorf("uncertainty has %d entries for %d truths", len(unc), len(res.Truths))
		}
		if _, _, err := s.Aggregate(ctx, "nope"); !errors.Is(err, ErrUnknownAggregation) {
			t.Errorf("unknown method: %v", err)
		}
	})

	t.Run(name+"/stats", func(t *testing.T) {
		s := newStore(t, 2)
		if err := s.Submit(ctx, "alice", 0, 1, at(0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(ctx, "bob", 1, 2, at(1)); err != nil {
			t.Fatal(err)
		}
		stats, err := s.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Tasks != 2 || stats.Accounts != 2 {
			t.Errorf("stats = %+v, want 2 tasks / 2 accounts", stats)
		}
		if stats.Degraded {
			t.Errorf("healthy store reports degraded: %q", stats.DegradedReason)
		}
	})

	t.Run(name+"/canceled context", func(t *testing.T) {
		s := newStore(t, 1)
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Submit(canceled, "alice", 0, 1, at(0)); err == nil {
			t.Error("submit with canceled context succeeded")
		}
		if _, err := s.Dataset(canceled); err == nil {
			t.Error("dataset with canceled context succeeded")
		}
	})
}

func TestStoreSuiteLocal(t *testing.T) {
	storeSuite(t, "local", func(t *testing.T, numTasks int) Store {
		return NewLocalStore(testTasks(numTasks))
	})
}

func TestStoreSuiteRemote(t *testing.T) {
	storeSuite(t, "remote", func(t *testing.T, numTasks int) Store {
		api := NewServer(NewLocalStore(testTasks(numTasks)), nil)
		srv := httptest.NewServer(api)
		t.Cleanup(srv.Close)
		t.Cleanup(api.Close)
		return NewRemoteStore(NewClient(srv.URL, WithHTTPClient(srv.Client()), WithRetries(0)))
	})
}

// TestRemoteStoreSatisfiesPinger pins the capability split: RemoteStore
// reports its backing node's health, LocalStore (in-process, always
// reachable) deliberately does not.
func TestRemoteStoreSatisfiesPinger(t *testing.T) {
	var s Store = NewRemoteStore(NewClient("http://127.0.0.1:1"))
	if _, ok := s.(Pinger); !ok {
		t.Error("RemoteStore lost the Pinger capability")
	}
	var l Store = NewLocalStore(testTasks(1))
	if _, ok := l.(Pinger); ok {
		t.Error("LocalStore grew a Pinger capability; update the readyz aggregation docs")
	}
}

// TestRemoteStoreHonorsDeadline pins that a RemoteStore call carries its
// context into the HTTP request.
func TestRemoteStoreHonorsDeadline(t *testing.T) {
	api := NewServer(NewLocalStore(testTasks(1)), nil)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)
	s := NewRemoteStore(NewClient(srv.URL, WithHTTPClient(srv.Client()), WithRetries(0)))
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := s.Submit(expired, "alice", 0, 1, at(0)); err == nil {
		t.Error("submit with expired deadline succeeded")
	}
}
