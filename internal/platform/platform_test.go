package platform

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/fingerprint"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/simulate"
)

func testTasks(n int) []mcs.Task {
	tasks := make([]mcs.Task, n)
	for i := range tasks {
		tasks[i] = mcs.Task{Name: "", X: float64(i) * 10, Y: 0}
	}
	return tasks
}

func at(min int) time.Time {
	return time.Date(2026, 7, 1, 10, min, 0, 0, time.UTC)
}

// testFeatures is a valid fingerprint feature vector: fingerprint.VectorLen
// short decimals counting up from seed, which keeps WAL records small.
func testFeatures(seed float64) []float64 {
	v := make([]float64, fingerprint.VectorLen)
	for i := range v {
		v[i] = seed + float64(i)*0.25
	}
	return v
}

func TestStoreSubmitAndDataset(t *testing.T) {
	s := NewLocalStore(testTasks(3))
	if err := s.Submit(context.Background(), "alice", 0, -80, at(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), "alice", 1, -70, at(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), "bob", 0, -82, at(2)); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Dataset(context.Background())
	if err := ds.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if ds.NumAccounts() != 2 || ds.NumTasks() != 3 {
		t.Fatalf("snapshot = %d accounts, %d tasks", ds.NumAccounts(), ds.NumTasks())
	}
	if v, ok := ds.Value(0, 1); !ok || v != -70 {
		t.Errorf("alice task 1 = %v, %v", v, ok)
	}
}

func TestStoreRejections(t *testing.T) {
	s := NewLocalStore(testTasks(2))
	if err := s.Submit(context.Background(), "", 0, 1, at(0)); !errors.Is(err, ErrEmptyAccount) {
		t.Errorf("empty account: %v", err)
	}
	if err := s.Submit(context.Background(), "a", 9, 1, at(0)); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task: %v", err)
	}
	if err := s.Submit(context.Background(), "a", -1, 1, at(0)); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("negative task: %v", err)
	}
	if err := s.Submit(context.Background(), "a", 0, 1, at(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), "a", 0, 2, at(1)); !errors.Is(err, ErrDuplicateReport) {
		t.Errorf("duplicate: %v", err)
	}
}

// TestStoreRejectsNonFiniteValues: a single NaN observation would poison
// CRH/mean aggregation for its task, so non-finite values die at the
// store boundary with typed, wire-codeable errors — and without
// registering the submitting account as a side effect.
func TestStoreRejectsNonFiniteValues(t *testing.T) {
	s := NewLocalStore(testTasks(2))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Submit(context.Background(), "a", 0, v, at(0)); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("Submit(%v) = %v, want ErrMalformedRequest", v, err)
		}
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		feats := testFeatures(1)
		feats[i] = v
		if err := s.RecordFingerprintFeatures(context.Background(), "a", feats); !errors.Is(err, ErrBadFingerprint) {
			t.Errorf("RecordFingerprintFeatures(%v) = %v, want ErrBadFingerprint", feats, err)
		}
	}
	// A raw capture whose streams contain non-finite samples extracts to
	// non-finite features and must be rejected the same way.
	dev := mems.NewDevice(mems.ModelIPhone7, 1, rand.New(rand.NewSource(1)))
	rec := dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(2)))
	rec.AccelX[3] = math.NaN()
	if err := s.RecordFingerprint(context.Background(), "a", rec); !errors.Is(err, ErrBadFingerprint) {
		t.Errorf("RecordFingerprint(NaN capture) = %v, want ErrBadFingerprint", err)
	}
	if s.NumAccounts() != 0 {
		t.Errorf("rejected writes registered %d accounts", s.NumAccounts())
	}
}

func TestStoreFingerprint(t *testing.T) {
	s := NewLocalStore(testTasks(1))
	dev := mems.NewDevice(mems.ModelIPhone7, 1, rand.New(rand.NewSource(1)))
	rec := dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(2)))
	if err := s.RecordFingerprint(context.Background(), "alice", rec); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Dataset(context.Background())
	if len(ds.Accounts[0].Fingerprint) == 0 {
		t.Error("fingerprint not stored")
	}
	// Malformed captures rejected.
	bad := rec
	bad.GyroZ = bad.GyroZ[:10]
	if err := s.RecordFingerprint(context.Background(), "x", bad); !errors.Is(err, ErrBadFingerprint) {
		t.Errorf("ragged capture: %v", err)
	}
	if err := s.RecordFingerprint(context.Background(), "x", mems.Recording{}); !errors.Is(err, ErrBadFingerprint) {
		t.Errorf("empty capture: %v", err)
	}
	if err := s.RecordFingerprint(context.Background(), "", rec); !errors.Is(err, ErrEmptyAccount) {
		t.Errorf("empty account: %v", err)
	}
}

func TestStoreAggregate(t *testing.T) {
	s := NewLocalStore(testTasks(1))
	for i, v := range []float64{10, 12, 11} {
		if err := s.Submit(context.Background(), string(rune('a'+i)), 0, v, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := s.Aggregate(context.Background(), "median")
	if err != nil {
		t.Fatal(err)
	}
	if res.Truths[0] != 11 {
		t.Errorf("median = %v", res.Truths[0])
	}
	if _, _, err := s.Aggregate(context.Background(), "nope"); !errors.Is(err, ErrUnknownAggregation) {
		t.Errorf("unknown method: %v", err)
	}
	for _, m := range []string{"crh", "mean", "td-ts", "td-tr"} {
		if _, _, err := s.Aggregate(context.Background(), m); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestStoreConcurrentSubmissions(t *testing.T) {
	s := NewLocalStore(testTasks(50))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			account := string(rune('a' + w))
			for task := 0; task < 50; task++ {
				if err := s.Submit(context.Background(), account, task, float64(task), at(task%60)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ds, _ := s.Dataset(context.Background())
	if ds.NumAccounts() != 8 {
		t.Fatalf("accounts = %d", ds.NumAccounts())
	}
	for i := range ds.Accounts {
		if len(ds.Accounts[i].Observations) != 50 {
			t.Errorf("account %d has %d observations", i, len(ds.Accounts[i].Observations))
		}
	}
}

func newTestServer(t *testing.T, numTasks int) (*httptest.Server, *Client) {
	t.Helper()
	store := NewLocalStore(testTasks(numTasks))
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, WithHTTPClient(srv.Client()))
}

func TestHTTPRoundTrip(t *testing.T) {
	_, client := newTestServer(t, 2)
	ctx := context.Background()

	tasks, err := client.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[1].Name != "T2" {
		t.Fatalf("tasks = %+v", tasks)
	}

	for i, v := range []float64{-80, -81, -79} {
		err := client.Submit(ctx, SubmissionRequest{
			Account: string(rune('a' + i)), Task: 0, Value: v, Time: at(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dev := mems.NewDevice(mems.ModelNexus5, 1, rand.New(rand.NewSource(3)))
	rec := dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(4)))
	if err := client.RecordFingerprint(ctx, "a", rec); err != nil {
		t.Fatal(err)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accounts != 3 || stats.Tasks != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err := client.Aggregate(ctx, "crh")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Truths) != 2 {
		t.Fatalf("truths = %+v", resp.Truths)
	}
	if !resp.Truths[0].Estimated || resp.Truths[0].Value > -75 || resp.Truths[0].Value < -85 {
		t.Errorf("task 0 estimate = %+v", resp.Truths[0])
	}
	if resp.Truths[1].Estimated {
		t.Error("task 1 has no data and must not be estimated")
	}
}

func TestHTTPFailureInjection(t *testing.T) {
	srv, client := newTestServer(t, 1)
	ctx := context.Background()

	// Malformed JSON body.
	resp, err := srv.Client().Post(srv.URL+"/v1/submissions", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}

	// Unknown fields rejected.
	resp, err = srv.Client().Post(srv.URL+"/v1/submissions", "application/json",
		strings.NewReader(`{"account":"a","task":0,"value":1,"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", resp.StatusCode)
	}

	// Unknown task -> 400 with message.
	err = client.Submit(ctx, SubmissionRequest{Account: "a", Task: 7, Value: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("unknown task err = %v", err)
	}

	// Duplicate -> 409.
	if err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	err = client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: 2, Time: at(1)})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate err = %v", err)
	}

	// Unknown aggregation -> 400.
	if _, err := client.Aggregate(ctx, "quantum"); err == nil {
		t.Error("unknown aggregation should error")
	}

	// Bad fingerprint -> 400.
	if err := client.RecordFingerprint(ctx, "a", mems.Recording{SampleRate: 100}); err == nil {
		t.Error("empty capture should error")
	}
}

func TestSubmissionDefaultsTimestamp(t *testing.T) {
	_, client := newTestServer(t, 1)
	if err := client.Submit(context.Background(), SubmissionRequest{Account: "a", Task: 0, Value: 5}); err != nil {
		t.Fatal(err)
	}
	// The submission must exist with a non-zero time.
	resp, err := client.Aggregate(context.Background(), "mean")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truths[0].Estimated || resp.Truths[0].Value != 5 {
		t.Errorf("aggregate after default-time submit = %+v", resp.Truths[0])
	}
}

func TestTasksFromPOIs(t *testing.T) {
	tasks, err := TasksFromPOIs([]string{"A", "B"}, []float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if tasks[1].Name != "B" || tasks[1].X != 2 || tasks[1].Y != 4 {
		t.Errorf("tasks = %+v", tasks)
	}
	if _, err := TasksFromPOIs([]string{"A"}, []float64{1, 2}, []float64{3}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestEndToEndSybilDefenseOverHTTP(t *testing.T) {
	// Replay the Table I scenario through the HTTP API and check that
	// td-tr resists while crh caves.
	_, client := newTestServer(t, 4)
	ctx := context.Background()

	submit := func(account string, task int, value float64, ts time.Time) {
		t.Helper()
		if err := client.Submit(ctx, SubmissionRequest{Account: account, Task: task, Value: value, Time: ts}); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Date(2026, 7, 1, 10, 0, 0, 0, time.UTC)
	ts := func(min, sec int) time.Time {
		return base.Add(time.Duration(min)*time.Minute + time.Duration(sec)*time.Second)
	}

	submit("1", 0, -84.48, ts(0, 35))
	submit("1", 1, -82.11, ts(2, 42))
	submit("1", 2, -75.16, ts(10, 22))
	submit("1", 3, -72.71, ts(13, 41))
	submit("2", 1, -72.27, ts(4, 15))
	submit("2", 2, -77.21, ts(6, 1))
	submit("3", 0, -72.41, ts(1, 21))
	submit("3", 1, -91.49, ts(4, 5))
	submit("3", 3, -73.55, ts(8, 28))
	for i, acct := range []string{"4a", "4b", "4c"} {
		submit(acct, 0, -50, ts(1+i, 10))
		submit(acct, 2, -50, ts(15+i, 24))
		submit(acct, 3, -50, ts(20+i, 6))
	}

	crh, err := client.Aggregate(ctx, "crh")
	if err != nil {
		t.Fatal(err)
	}
	tdtr, err := client.Aggregate(ctx, "td-tr")
	if err != nil {
		t.Fatal(err)
	}
	// CRH is dragged toward -50 on T1; td-tr stays below -65.
	if crh.Truths[0].Value < -65 {
		t.Errorf("CRH T1 = %.2f, expected dragged above -65", crh.Truths[0].Value)
	}
	if tdtr.Truths[0].Value > -65 {
		t.Errorf("td-tr T1 = %.2f, expected resistant (below -65)", tdtr.Truths[0].Value)
	}
}

func TestDatasetExportOverHTTP(t *testing.T) {
	_, client := newTestServer(t, 2)
	ctx := context.Background()
	if err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: -70, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "b", Task: 1, Value: -75, Time: at(1)}); err != nil {
		t.Fatal(err)
	}
	ds, err := client.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumAccounts() != 2 || ds.NumTasks() != 2 {
		t.Fatalf("exported shape = %d accounts, %d tasks", ds.NumAccounts(), ds.NumTasks())
	}
	if v, ok := ds.Value(0, 0); !ok || v != -70 {
		t.Errorf("exported value = %v, %v", v, ok)
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("exported dataset invalid: %v", err)
	}
}

func TestDriveCampaignEndToEnd(t *testing.T) {
	_, client := newTestServer(t, 10)
	report, err := DriveCampaign(context.Background(), client, AgentConfig{
		NumLegit:      6,
		SybilAccounts: 4,
		Activeness:    0.6,
		Seed:          3,
		Start:         at(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6 honest + 2 attackers x 4 accounts = 14.
	if report.Accounts != 14 || report.Tasks != 10 {
		t.Fatalf("report = %+v", report)
	}
	if len(report.Outcomes) != 4 {
		t.Fatalf("outcomes = %+v", report.Outcomes)
	}
	byMethod := map[string]MethodOutcome{}
	for _, o := range report.Outcomes {
		byMethod[o.Method] = o
	}
	// The framework with trajectory grouping must beat plain CRH.
	if byMethod["td-tr"].MAE >= byMethod["crh"].MAE {
		t.Errorf("td-tr MAE %.2f not below crh %.2f", byMethod["td-tr"].MAE, byMethod["crh"].MAE)
	}
}

func TestDriveCampaignValidation(t *testing.T) {
	_, client := newTestServer(t, 1)
	// Platform with a single task: the agent requires >= 2.
	if _, err := DriveCampaign(context.Background(), client, AgentConfig{Seed: 1}); err == nil {
		t.Error("single-task platform should be rejected")
	}
	_, client = newTestServer(t, 5)
	if _, err := DriveCampaign(context.Background(), client, AgentConfig{NumLegit: -1}); err == nil {
		t.Error("negative legit count should be rejected")
	}
}

func TestDriveCampaignNoAttackers(t *testing.T) {
	_, client := newTestServer(t, 5)
	report, err := DriveCampaign(context.Background(), client, AgentConfig{
		NumLegit: 3, Seed: 4, Start: at(0), Methods: []string{"mean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Accounts != 3 {
		t.Errorf("accounts = %d, want 3", report.Accounts)
	}
	if len(report.Outcomes) != 1 || report.Outcomes[0].Method != "mean" {
		t.Errorf("outcomes = %+v", report.Outcomes)
	}
	// Honest-only campaign: mean MAE should be small.
	if report.Outcomes[0].MAE > 5 {
		t.Errorf("honest-only MAE = %.2f, want small", report.Outcomes[0].MAE)
	}
}

func TestConcurrentCampaignsOnOnePlatform(t *testing.T) {
	// Several field teams drive the same platform concurrently; the store
	// must stay consistent and aggregation must still run. Run with -race
	// to catch synchronization bugs.
	_, client := newTestServer(t, 8)
	const teams = 4
	var wg sync.WaitGroup
	errs := make([]error, teams)
	for team := 0; team < teams; team++ {
		wg.Add(1)
		go func(team int) {
			defer wg.Done()
			_, err := DriveCampaign(context.Background(), client, AgentConfig{
				NumLegit:      3,
				SybilAccounts: 2,
				Seed:          int64(team + 1),
				Start:         at(team),
				AccountPrefix: string(rune('A'+team)) + "-",
				Methods:       []string{"crh"},
			})
			errs[team] = err
		}(team)
	}
	wg.Wait()
	for team, err := range errs {
		if err != nil {
			t.Fatalf("team %d: %v", team, err)
		}
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 4 teams x (3 honest + 2 attackers x 2 accounts) = 28 accounts.
	if stats.Accounts != 28 {
		t.Errorf("accounts = %d, want 28", stats.Accounts)
	}
	// The merged campaign still aggregates.
	if _, err := client.Aggregate(context.Background(), "td-tr"); err != nil {
		t.Fatal(err)
	}
	ds, err := client.Dataset(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("merged dataset invalid: %v", err)
	}
}

func TestAccountCap(t *testing.T) {
	s := NewLocalStore(testTasks(2))
	s.SetMaxAccounts(2)
	if err := s.Submit(context.Background(), "a", 0, 1, at(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), "b", 0, 2, at(1)); err != nil {
		t.Fatal(err)
	}
	// Existing accounts keep working.
	if err := s.Submit(context.Background(), "a", 1, 3, at(2)); err != nil {
		t.Fatal(err)
	}
	// New accounts are rejected, for submissions and fingerprints alike.
	if err := s.Submit(context.Background(), "c", 0, 4, at(3)); !errors.Is(err, ErrTooManyAccounts) {
		t.Errorf("cap not enforced: %v", err)
	}
	dev := mems.NewDevice(mems.ModelLGG5, 1, rand.New(rand.NewSource(1)))
	rec := dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(2)))
	if err := s.RecordFingerprint(context.Background(), "c", rec); !errors.Is(err, ErrTooManyAccounts) {
		t.Errorf("cap not enforced on fingerprints: %v", err)
	}
	// Lifting the cap admits the account.
	s.SetMaxAccounts(0)
	if err := s.Submit(context.Background(), "c", 0, 4, at(3)); err != nil {
		t.Fatal(err)
	}
}

func TestAccountCapOverHTTP(t *testing.T) {
	store := NewLocalStore(testTasks(1))
	store.SetMaxAccounts(1)
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))
	ctx := context.Background()
	if err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	err := client.Submit(ctx, SubmissionRequest{Account: "b", Task: 0, Value: 2, Time: at(1)})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("expected HTTP 429, got %v", err)
	}
}

func TestReplayDataset(t *testing.T) {
	// Generate a campaign, replay it onto a fresh platform, and check that
	// the replayed platform reproduces the original aggregation.
	sc, err := simulate.Build(simulate.Config{Seed: 31, SybilActiveness: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	store := NewLocalStore(sc.Dataset.Tasks)
	srv := httptest.NewServer(NewServer(store, nil))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithHTTPClient(srv.Client()))

	var events int
	n, err := ReplayDataset(context.Background(), client, sc.Dataset, ReplayOptions{
		OnEvent: func(int) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantObs int
	for _, a := range sc.Dataset.Accounts {
		wantObs += len(a.Observations)
	}
	if n != wantObs || events != wantObs {
		t.Fatalf("replayed %d events (callbacks %d), want %d", n, events, wantObs)
	}

	// The replayed platform holds an equivalent dataset...
	got, _ := store.Dataset(context.Background())
	if got.NumAccounts() != sc.Dataset.NumAccounts() {
		t.Fatalf("accounts = %d, want %d", got.NumAccounts(), sc.Dataset.NumAccounts())
	}
	for i := range got.Accounts {
		if len(got.Accounts[i].Fingerprint) == 0 {
			t.Fatalf("account %q lost its fingerprint", got.Accounts[i].ID)
		}
	}
	// ...and aggregating it gives the same answer as aggregating the
	// original (same algorithm, same data).
	direct, err := AlgorithmByName("td-tr")
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Run(sc.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := store.Aggregate(context.Background(), "td-tr")
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Truths {
		a, b := want.Truths[j], res.Truths[j]
		if a != a && b != b {
			continue // both NaN
		}
		// Replay registers accounts in timestamp order, so floating-point
		// summation order differs from the generation order by design;
		// results must agree to numerical precision, not bit-for-bit.
		if diff := math.Abs(a - b); diff > 1e-6 {
			t.Fatalf("T%d: replayed %.8f vs direct %.8f (diff %g)", j+1, b, a, diff)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	_, client := newTestServer(t, 2)
	if _, err := ReplayDataset(context.Background(), nil, mcs.NewDataset(1), ReplayOptions{}); err == nil {
		t.Error("nil client should error")
	}
	if _, err := ReplayDataset(context.Background(), client, nil, ReplayOptions{}); err == nil {
		t.Error("nil dataset should error")
	}
	bad := mcs.NewDataset(1)
	bad.AddAccount(mcs.Account{ID: ""})
	if _, err := ReplayDataset(context.Background(), client, bad, ReplayOptions{}); err == nil {
		t.Error("invalid dataset should error")
	}
	// Cancellation interrupts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := mcs.NewDataset(1)
	ds.AddAccount(mcs.Account{ID: "a", Observations: []mcs.Observation{{Task: 0, Value: 1, Time: at(0)}}})
	if _, err := ReplayDataset(ctx, client, ds, ReplayOptions{}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestFeatureFingerprintOverHTTP(t *testing.T) {
	_, client := newTestServer(t, 1)
	ctx := context.Background()
	if err := client.RecordFeatureFingerprint(ctx, "a", testFeatures(1)); err != nil {
		t.Fatal(err)
	}
	if err := client.RecordFeatureFingerprint(ctx, "b", nil); err == nil {
		t.Error("empty feature vector should error")
	}
}

func TestAggregateReportsUncertainty(t *testing.T) {
	_, client := newTestServer(t, 2)
	ctx := context.Background()
	// Three agreeing reports on task 0; a single report on task 1.
	for i, v := range []float64{-70, -70.4, -69.8} {
		if err := client.Submit(ctx, SubmissionRequest{Account: string(rune('a' + i)), Task: 0, Value: v, Time: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "a", Task: 1, Value: -80, Time: at(9)}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Aggregate(ctx, "crh")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truths[0].Uncertainty <= 0 || resp.Truths[0].Uncertainty > 1 {
		t.Errorf("task 0 uncertainty = %v, want small positive", resp.Truths[0].Uncertainty)
	}
	// Single-report task: uncertainty omitted (infinite server-side).
	if resp.Truths[1].Uncertainty != 0 {
		t.Errorf("task 1 uncertainty = %v, want omitted", resp.Truths[1].Uncertainty)
	}
}
