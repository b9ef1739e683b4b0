package platform

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

// TestPurgeFencedDropsDataKeepsFence pins the purge contract on a local
// store: PurgeFenced(v) drops the data of accounts fenced at or below v —
// and ONLY those — while the fence map and watermark survive, so a stale
// writer still gets wrong_shard after the GC. Re-purging is free (no
// effect, no error): the migration coordinator re-issues purges on
// resume.
func TestPurgeFencedDropsDataKeepsFence(t *testing.T) {
	s := NewLocalStore(testTasks(2))
	ctx := context.Background()
	now := time.Now()
	for _, a := range []string{"a", "b", "c"} {
		if err := s.Submit(ctx, a, 0, 1, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fence(ctx, 2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Fence(ctx, 3, []string{"c"}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.PurgeFenced(ctx, 0); !errors.Is(err, ErrMalformedRequest) {
		t.Errorf("PurgeFenced(0) = %v, want ErrMalformedRequest", err)
	}
	if n, err := s.PurgeFenced(ctx, 1); n != 0 || err != nil {
		t.Errorf("PurgeFenced(1) = (%d, %v), want (0, nil): nothing fenced that low", n, err)
	}

	n, err := s.PurgeFenced(ctx, 2)
	if err != nil || n != 2 {
		t.Fatalf("PurgeFenced(2) = (%d, %v), want (2, nil)", n, err)
	}
	ds, err := s.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Accounts) != 1 || ds.Accounts[0].ID != "c" {
		t.Errorf("post-purge dataset = %+v, want only the v3-fenced account c", ds.Accounts)
	}
	// The fence outlives the data on exactly the purged accounts.
	if err := s.Submit(ctx, "a", 0, 2, now); !errors.Is(err, ErrWrongShard) {
		t.Errorf("submit to purged account = %v, want ErrWrongShard", err)
	}
	if v := s.FenceVersion(); v != 3 {
		t.Errorf("fence watermark = %d after purge, want 3", v)
	}
	// Idempotent: nothing left at or below 2.
	if n, err := s.PurgeFenced(ctx, 2); n != 0 || err != nil {
		t.Errorf("re-purge = (%d, %v), want (0, nil)", n, err)
	}

	if n, err := s.PurgeFenced(ctx, 3); n != 1 || err != nil {
		t.Errorf("PurgeFenced(3) = (%d, %v), want (1, nil)", n, err)
	}
	if ds, _ := s.Dataset(ctx); len(ds.Accounts) != 0 {
		t.Errorf("dataset holds %d accounts after full purge, want 0", len(ds.Accounts))
	}
	if err := s.Submit(ctx, "c", 0, 2, now); !errors.Is(err, ErrWrongShard) {
		t.Errorf("submit to purged account c = %v, want ErrWrongShard", err)
	}
}

// TestPurgeFencedDurableReplay: the purge is a journaled WAL record, so a
// crash-restart WITHOUT a snapshot (Abort) replays it and reconstructs
// the purged-but-still-fenced state.
func TestPurgeFencedDurableReplay(t *testing.T) {
	dir := t.TempDir()
	store, d, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	now := time.Now()
	for _, a := range []string{"moved", "kept"} {
		if err := store.Submit(ctx, a, 0, 1, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Fence(ctx, 2, []string{"moved"}); err != nil {
		t.Fatal(err)
	}
	if n, err := store.PurgeFenced(ctx, 2); n != 1 || err != nil {
		t.Fatalf("PurgeFenced = (%d, %v), want (1, nil)", n, err)
	}
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}

	reopened, d2, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d2.Close() })
	ds, err := reopened.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Accounts) != 1 || ds.Accounts[0].ID != "kept" {
		t.Errorf("replayed dataset = %+v, want only the unfenced account", ds.Accounts)
	}
	if err := reopened.Submit(ctx, "moved", 0, 2, now); !errors.Is(err, ErrWrongShard) {
		t.Errorf("replayed store accepts the purged account (err=%v), want ErrWrongShard", err)
	}
}

// noPurgeStore hides every capability beyond the base Store interface, so
// the purge route's 501 path is reachable.
type noPurgeStore struct{ Store }

// TestPurgeOverHTTP covers the wire: POST /v1/admin/purge drives
// PurgeFenced through Server, Client, and RemoteStore, and a backend
// without the Fencer capability answers the typed unimplemented
// code instead of a generic 500.
func TestPurgeOverHTTP(t *testing.T) {
	store := NewLocalStore(testTasks(2))
	api := NewServer(store, nil)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)
	ctx := context.Background()
	now := time.Now()
	if err := store.Submit(ctx, "gone", 0, 1, now); err != nil {
		t.Fatal(err)
	}
	if err := store.Fence(ctx, 2, []string{"gone"}); err != nil {
		t.Fatal(err)
	}

	remote := NewRemoteStore(NewClient(srv.URL, WithRetries(0)))
	n, err := remote.PurgeFenced(ctx, 2)
	if err != nil || n != 1 {
		t.Fatalf("remote PurgeFenced = (%d, %v), want (1, nil)", n, err)
	}
	if ds, _ := store.Dataset(ctx); len(ds.Accounts) != 0 {
		t.Errorf("backend holds %d accounts after remote purge, want 0", len(ds.Accounts))
	}
	// Zero ring version is refused on the wire too.
	if _, err := remote.PurgeFenced(ctx, 0); !errors.Is(err, ErrMalformedRequest) {
		t.Errorf("remote PurgeFenced(0) = %v, want ErrMalformedRequest", err)
	}

	plain := NewServer(noPurgeStore{NewLocalStore(testTasks(2))}, nil)
	plainSrv := httptest.NewServer(plain)
	t.Cleanup(plainSrv.Close)
	t.Cleanup(plain.Close)
	if _, err := NewRemoteStore(NewClient(plainSrv.URL, WithRetries(0))).PurgeFenced(ctx, 2); !errors.Is(err, ErrUnimplemented) {
		t.Errorf("purge against a non-purger backend = %v, want ErrUnimplemented", err)
	}
}
