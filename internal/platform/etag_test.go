package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"sybiltd/internal/fingerprint"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/obs"
	"sybiltd/internal/simulate"
)

// getDataset GETs base/v1/dataset, with If-None-Match when inm is set, and
// returns the status, the ETag and the body.
func getDataset(t *testing.T, base, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/dataset", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// etagOf reads the node's current dataset ETag and checks that a
// conditional read naming it answers 304 with the same tag and no body.
func etagOf(t *testing.T, base string) string {
	t.Helper()
	status, tag, _ := getDataset(t, base, "")
	if status != http.StatusOK || tag == "" {
		t.Fatalf("GET /v1/dataset = %d with ETag %q, want 200 with a tag", status, tag)
	}
	status, again, body := getDataset(t, base, tag)
	if status != http.StatusNotModified || again != tag || len(body) != 0 {
		t.Fatalf("conditional GET on %s = %d, ETag %q, %d body bytes; want 304, the same tag, no body", tag, status, again, len(body))
	}
	return tag
}

// TestDatasetETagNamesLiveState pins the validator: every write that
// changes a node's state — client mutations, a follower's frame apply and
// snapshot adoption, a durable reopen — moves the ETag, and a refused
// write or a read leaves it alone.
func TestDatasetETagNamesLiveState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primary := NewReplication(store, d, ReplicationOptions{Registry: obs.NewRegistry()})
	pSrv := httptest.NewServer(NewServer(store, nil))
	defer func() { pSrv.Close() }()
	pURL := func() string { return pSrv.URL }

	fStore, fd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	follower := NewReplication(fStore, fd, ReplicationOptions{FollowerOf: "x", Registry: obs.NewRegistry()})
	defer follower.Close()
	fSrv := httptest.NewServer(NewServerWithOptions(fStore, ServerOptions{Replication: follower, DisableWatch: true}))
	defer fSrv.Close()
	fURL := func() string { return fSrv.URL }

	rec := mems.NewDevice(mems.ModelIPhone7, 1, rand.New(rand.NewSource(1))).Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(2)))
	features := fingerprint.Extract(rec)
	features[0]++
	var shipped uint64 // the follower's cursor
	ship := func(req ReplShipRequest) error {
		resp, err := follower.ApplyShip(ctx, req)
		shipped = resp.AppliedSeq
		return err
	}
	refused := func(want error, err error) error {
		if !errors.Is(err, want) {
			return fmt.Errorf("got %v, want %v", err, want)
		}
		return nil
	}
	steps := []struct {
		name    string
		base    func() string
		do      func() error
		changes bool
	}{
		{"submit", pURL, func() error { return store.Submit(ctx, "ana", 0, -80, at(0)) }, true},
		{"batch", pURL, func() error {
			return errors.Join(store.SubmitBatch(ctx, []BatchSubmission{{Account: "bo", Task: 1, Value: -70, At: at(1)}, {Account: "cy", Task: 2, Value: -90, At: at(2)}})...)
		}, true},
		{"raw fingerprint", pURL, func() error { return store.RecordFingerprint(ctx, "ana", rec) }, true},
		{"feature fingerprint", pURL, func() error { return store.RecordFingerprintFeatures(ctx, "bo", features) }, true},
		{"duplicate refused", pURL, func() error { return refused(ErrDuplicateReport, store.Submit(ctx, "ana", 0, -1, at(3))) }, false},
		{"unknown task refused", pURL, func() error { return refused(ErrUnknownTask, store.Submit(ctx, "dee", 9, -1, at(3))) }, false},
		{"reads", pURL, func() error {
			if _, err := store.Dataset(ctx); err != nil {
				return err
			}
			if _, err := store.Stats(ctx); err != nil {
				return err
			}
			_, _, err := store.Aggregate(ctx, "td-fp")
			return err
		}, false},
		{"fence", pURL, func() error { return store.Fence(ctx, 2, []string{"cy"}) }, true},
		{"purge", pURL, func() error {
			n, err := store.PurgeFenced(ctx, 2)
			if err == nil && n != 1 {
				return errors.New("purge dropped no account")
			}
			return err
		}, true},
		{"empty purge", pURL, func() error { _, err := store.PurgeFenced(ctx, 2); return err }, false},
		{"not-primary refused", fURL, func() error { return refused(ErrNotPrimary, fStore.Submit(ctx, "eva", 0, -1, at(4))) }, false},
		{"follower frame apply", fURL, func() error {
			frames, _, err := d.framesSince(shipped, 100)
			if err != nil {
				return err
			}
			return ship(ReplShipRequest{PrimarySeq: d.durableSeq(), Frames: frames})
		}, true},
		{"follower replay of applied frames", fURL, func() error {
			frames, _, err := d.framesSince(0, 100)
			if err != nil {
				return err
			}
			return ship(ReplShipRequest{PrimarySeq: d.durableSeq(), Frames: frames})
		}, false},
		{"follower snapshot adoption", fURL, func() error {
			snap, err := primary.snapshotForShip()
			if err != nil {
				return err
			}
			return ship(snap)
		}, true},
		{"durable reopen", pURL, func() error {
			primary.Close()
			if err := d.Close(); err != nil {
				return err
			}
			reopened, rd, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
			if err != nil {
				return err
			}
			t.Cleanup(func() { _ = rd.Close() })
			pSrv.Close()
			pSrv = httptest.NewServer(NewServer(reopened, nil))
			return nil
		}, true},
	}
	for _, st := range steps {
		before := etagOf(t, st.base())
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after := etagOf(t, st.base())
		if changed := after != before; changed != st.changes {
			t.Errorf("%s: ETag %s -> %s, changed=%v, want %v", st.name, before, after, changed, st.changes)
		}
		if st.changes {
			if status, _, body := getDataset(t, st.base(), before); status != http.StatusOK || len(body) == 0 {
				t.Errorf("%s: conditional GET on the old tag = %d with %d body bytes, want 200 with the dataset", st.name, status, len(body))
			}
		}
	}
}

// TestDatasetConditionalReadOnLaggingFollower: the follower read gate runs
// before the validator, so a follower beyond MaxReadLag refuses even a
// conditional read whose tag still names its (stale) state.
func TestDatasetConditionalReadOnLaggingFollower(t *testing.T) {
	ctx := context.Background()
	fStore, fd, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	follower := NewReplication(fStore, fd, ReplicationOptions{FollowerOf: "x", MaxReadLag: 1, Registry: obs.NewRegistry()})
	defer follower.Close()
	srv := httptest.NewServer(NewServerWithOptions(fStore, ServerOptions{Replication: follower, DisableWatch: true}))
	defer srv.Close()

	tag := etagOf(t, srv.URL)
	// The primary advertises seq 10 and ships nothing: the follower's
	// state (and tag) is unchanged but 10 records stale.
	if _, err := follower.ApplyShip(ctx, ReplShipRequest{PrimarySeq: 10}); err != nil {
		t.Fatal(err)
	}
	status, _, body := getDataset(t, srv.URL, tag)
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || status != http.StatusServiceUnavailable || er.Code != CodeReplicaLag {
		t.Fatalf("conditional read on a lagging follower = %d %q, want 503 %s", status, body, CodeReplicaLag)
	}
	if _, err := NewClient(srv.URL).Dataset(ctx); !errors.Is(err, ErrReplicaLag) {
		t.Errorf("client read on a lagging follower: %v, want ErrReplicaLag", err)
	}
}

// TestClientDatasetRevalidates: the client revalidates the dataset it
// kept, gets the identical dataset back on a 304, sees every change, and
// keeps nothing from an untagged answer.
func TestClientDatasetRevalidates(t *testing.T) {
	ctx := context.Background()
	store := NewLocalStore(testTasks(2))
	var conditional, bodies atomic.Int64
	api := NewServer(store, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			conditional.Add(1)
		}
		api.ServeHTTP(&countingWriter{ResponseWriter: w, n: &bodies}, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if err := store.Submit(ctx, "a", 0, -70, at(0)); err != nil {
		t.Fatal(err)
	}
	first, err := c.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sent := bodies.Load()
	second, err := c.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second != first || conditional.Load() != 1 || bodies.Load() != sent {
		t.Fatalf("unchanged read: same dataset %v, %d conditional requests, %d body bytes; want the kept dataset, 1, none",
			second == first, conditional.Load(), bodies.Load()-sent)
	}
	if err := store.Submit(ctx, "b", 1, -75, at(1)); err != nil {
		t.Fatal(err)
	}
	third, err := c.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if third == first || third.NumAccounts() != 2 {
		t.Fatalf("read after a write returned %d accounts (kept dataset reused: %v)", third.NumAccounts(), third == first)
	}
	want, _ := store.Dataset(ctx)
	if !reflect.DeepEqual(third, want) {
		t.Error("revalidated dataset differs from the store's")
	}

	// An answer without an ETag (a router's merged export) drops the kept
	// dataset: the next read is unconditional.
	untagged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			t.Error("conditional request after an untagged answer")
		}
		w.Header().Set("Content-Type", "application/json")
		_ = want.EncodeJSON(w)
	}))
	defer untagged.Close()
	u := NewClient(untagged.URL)
	for i := 0; i < 2; i++ {
		if _, err := u.Dataset(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// countingWriter counts body bytes before they can reach the client.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// TestClientDatasetNeverRevalidatesAcrossEndpoints: after a rotation the
// client must not offer one node's tag to another. The second endpoint
// here answers 304 to any conditional read, so sending the first node's
// tag would hand back the first node's dataset.
func TestClientDatasetNeverRevalidatesAcrossEndpoints(t *testing.T) {
	ctx := context.Background()
	a := NewLocalStore(testTasks(1))
	if err := a.Submit(ctx, "on-a", 0, -70, at(0)); err != nil {
		t.Fatal(err)
	}
	aSrv := httptest.NewServer(NewServer(a, nil))
	b := NewLocalStore(testTasks(1))
	if err := b.Submit(ctx, "on-b", 0, -80, at(0)); err != nil {
		t.Fatal(err)
	}
	bAPI := NewServer(b, nil)
	bSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			w.Header().Set("ETag", inm)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		bAPI.ServeHTTP(w, r)
	}))
	defer bSrv.Close()

	c := NewClient(aSrv.URL, WithEndpoints(bSrv.URL))
	ds, err := c.Dataset(ctx)
	if err != nil || ds.Accounts[0].ID != "on-a" {
		t.Fatalf("first read = %v, %v; want node a's dataset", ds, err)
	}
	aSrv.Close()
	if _, err := c.Dataset(ctx); err == nil {
		t.Fatal("read from a closed endpoint succeeded")
	}
	for i := 0; i < 2; i++ {
		ds, err = c.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Accounts) != 1 || ds.Accounts[0].ID != "on-b" {
			t.Fatalf("read %d after rotating to b returned %v, want node b's dataset", i, ds.Accounts)
		}
	}
}

// TestAggregateDatasetLeavesInputUnchanged: every aggregation method only
// reads its input, which the router's gather shares across aggregates
// until a shard changes.
func TestAggregateDatasetLeavesInputUnchanged(t *testing.T) {
	sc, err := simulate.Build(simulate.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := sc.Dataset
	fingerprints := 0
	for _, a := range ds.Accounts {
		if len(a.Fingerprint) > 0 {
			fingerprints++
		}
	}
	if fingerprints == 0 {
		t.Fatal("campaign carries no fingerprints")
	}
	want := datasetBits(ds)
	for _, method := range []string{"crh", "mean", "median", "td-fp", "td-ts", "td-tr"} {
		if _, _, err := AggregateDataset(context.Background(), method, ds); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got := datasetBits(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mutated its input dataset", method)
		}
	}
}

// datasetBits flattens ds into comparable values, every float as its bits,
// so a comparison tells -0 from 0 and compares NaN payloads.
func datasetBits(ds *mcs.Dataset) []any {
	var out []any
	for _, tk := range ds.Tasks {
		out = append(out, tk.ID, tk.Name, math.Float64bits(tk.X), math.Float64bits(tk.Y))
	}
	for _, a := range ds.Accounts {
		out = append(out, a.ID, len(a.Observations), len(a.Fingerprint))
		for _, o := range a.Observations {
			out = append(out, o.Task, math.Float64bits(o.Value), o.Time.String())
		}
		for _, f := range a.Fingerprint {
			out = append(out, math.Float64bits(f))
		}
	}
	return out
}
