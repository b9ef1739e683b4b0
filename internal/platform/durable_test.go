package platform

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sybiltd/internal/fingerprint"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/wal"
)

// scriptOp is one acknowledged mutation of the scripted campaign the
// recovery tests replay and crash.
type scriptOp struct {
	rec walRecord
}

// campaignScript is a fixed mix of fingerprints and submissions across
// five accounts and three tasks — enough interleaving that any recovered
// prefix exercises account registration order, fingerprint overwrite, and
// per-task submissions.
func campaignScript() []scriptOp {
	fp := func(account string, seed float64) scriptOp {
		return scriptOp{walRecord{Op: opFingerprint, Account: account, Features: testFeatures(seed)}}
	}
	sub := func(account string, task int, value float64, minute int) scriptOp {
		return scriptOp{walRecord{Op: opSubmit, Account: account, Task: task, Value: value, Time: at(minute)}}
	}
	return []scriptOp{
		fp("ana", 1.0),
		sub("ana", 0, -80.5, 0),
		fp("bo", 2.0),
		sub("bo", 0, -79.25, 1),
		sub("ana", 1, -71, 2),
		fp("cy", 3.0),
		sub("cy", 2, -90.125, 3),
		sub("bo", 1, -70.5, 4),
		fp("dee", 4.0),
		sub("dee", 0, -81, 5),
		fp("dee", 4.5), // fingerprint overwrite
		sub("cy", 0, -80, 6),
		sub("dee", 2, -89, 7),
		fp("eva", 5.0),
		sub("eva", 1, -72.75, 8),
		sub("eva", 2, -88.5, 9),
	}
}

// applyOp drives one scripted op through the store's public API.
func applyOp(s *LocalStore, op scriptOp) error {
	if op.rec.Op == opSubmit {
		return s.Submit(context.Background(), op.rec.Account, op.rec.Task, op.rec.Value, op.rec.Time)
	}
	return s.RecordFingerprintFeatures(context.Background(), op.rec.Account, op.rec.Features)
}

// signature canonicalizes a store's full state: dataset JSON is
// deterministic (registration order, time-sorted observations), so equal
// signatures mean equal recovered state.
func signature(t *testing.T, s *LocalStore) string {
	t.Helper()
	var buf bytes.Buffer
	ds, err := s.Dataset(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// prefixSignatures returns sig[r] = the state signature after applying
// the first r scripted ops to a fresh in-memory store.
func prefixSignatures(t *testing.T, ops []scriptOp) []string {
	t.Helper()
	sigs := make([]string, 0, len(ops)+1)
	ref := NewLocalStore(testTasks(3))
	sigs = append(sigs, signature(t, ref))
	for _, op := range ops {
		if err := applyOp(ref, op); err != nil {
			t.Fatalf("reference apply: %v", err)
		}
		sigs = append(sigs, signature(t, ref))
	}
	return sigs
}

// runCampaign opens a durable store in dir, applies the script, and
// returns the durability handle with every op acknowledged.
func runCampaign(t *testing.T, dir string, opts DurableOptions) *Durability {
	t.Helper()
	store, d, _, err := OpenDurable(dir, testTasks(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range campaignScript() {
		if err := applyOp(store, op); err != nil {
			t.Fatalf("op %d not acknowledged: %v", i, err)
		}
	}
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{})
	want := signature(t, d.store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	store, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !stats.SnapshotLoaded {
		t.Error("close did not leave a snapshot")
	}
	if stats.WALRecords != 0 {
		t.Errorf("WAL not compacted at close: %d records", stats.WALRecords)
	}
	if got := signature(t, store); got != want {
		t.Errorf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The recovered store keeps accepting (and journaling) new work.
	if err := store.Submit(context.Background(), "fred", 0, -77, at(30)); err != nil {
		t.Fatal(err)
	}
}

// TestDurableMatchesInMemory: a -data-dir run must be behavior-identical
// to the in-memory platform — same acks, same rejections, same dataset.
func TestDurableMatchesInMemory(t *testing.T) {
	mem := NewLocalStore(testTasks(3))
	store, d, _, err := OpenDurable(t.TempDir(), testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i, op := range campaignScript() {
		em, ed := applyOp(mem, op), applyOp(store, op)
		if (em == nil) != (ed == nil) {
			t.Fatalf("op %d: in-memory err=%v durable err=%v", i, em, ed)
		}
	}
	// Rejections must match too, including the new non-finite guards.
	type try func(s *LocalStore) error
	rejections := []try{
		func(s *LocalStore) error { return s.Submit(context.Background(), "ana", 0, -1, at(20)) },    // duplicate
		func(s *LocalStore) error { return s.Submit(context.Background(), "zed", 99, -1, at(20)) },   // unknown task
		func(s *LocalStore) error { return s.Submit(context.Background(), "", 0, -1, at(20)) },       // empty account
		func(s *LocalStore) error { return s.Submit(context.Background(), "zed", 0, nan(), at(20)) }, // NaN
	}
	for i, reject := range rejections {
		em, ed := reject(mem), reject(store)
		if !errors.Is(ed, errorRoot(em)) {
			t.Errorf("rejection %d: in-memory %v, durable %v", i, em, ed)
		}
	}
	if signature(t, mem) != signature(t, store) {
		t.Error("in-memory and durable stores diverged")
	}
}

// errorRoot maps a store error to its sentinel for errors.Is comparison.
func errorRoot(err error) error {
	for _, sentinel := range []error{ErrDuplicateReport, ErrUnknownTask, ErrEmptyAccount, ErrMalformedRequest, ErrBadFingerprint, ErrTooManyAccounts} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

func nan() float64 { return math.NaN() }

// TestTortureCrashAtEveryOffset is the kill-recover equivalence check:
// run the scripted campaign, then simulate a crash at every byte offset
// of the WAL and verify each recovery yields exactly a prefix of the
// acknowledged operations — never a lost acknowledged write, never a
// phantom record — with the prefix length monotone in the surviving
// bytes. Short mode strides through offsets to stay fast in tier-1.
func TestTortureCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{}) // SnapshotEvery 0: all ops stay in the WAL
	walBytes, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.w.Close(); err != nil { // close without the final snapshot
		t.Fatal(err)
	}
	ops := campaignScript()
	if len(walBytes) < 500 {
		t.Fatalf("campaign WAL implausibly small: %d bytes", len(walBytes))
	}

	sigs := prefixSignatures(t, ops)
	sigToPrefix := make(map[string]int, len(sigs))
	for r, sig := range sigs {
		sigToPrefix[sig] = r
	}

	stride := 1
	if testing.Short() {
		stride = 13
	}
	crashBase := t.TempDir()
	lastPrefix := 0
	tested := 0
	for k := 0; k <= len(walBytes); k += stride {
		if k+stride > len(walBytes) {
			k = len(walBytes) // always test the complete log
		}
		crashDir := filepath.Join(crashBase, fmt.Sprintf("crash-%06d", k))
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, walFileName), walBytes[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		store, d2, stats, err := OpenDurable(crashDir, testTasks(3), DurableOptions{})
		if err != nil {
			t.Fatalf("offset %d: recovery refused to start: %v", k, err)
		}
		prefix, ok := sigToPrefix[signature(t, store)]
		if !ok {
			t.Fatalf("offset %d: recovered state is not a prefix of the acknowledged ops", k)
		}
		if prefix != stats.RecordsReplayed {
			t.Fatalf("offset %d: replayed %d records but state matches prefix %d", k, stats.RecordsReplayed, prefix)
		}
		if prefix < lastPrefix {
			t.Fatalf("offset %d: prefix shrank %d -> %d (more bytes, less data)", k, lastPrefix, prefix)
		}
		lastPrefix = prefix
		tested++
		_ = d2.w.Close()
		if k == len(walBytes) {
			if prefix != len(ops) {
				t.Fatalf("full WAL recovered only %d/%d ops", prefix, len(ops))
			}
			break
		}
	}
	t.Logf("tested %d crash offsets over %d WAL bytes (stride %d)", tested, len(walBytes), stride)
}

// TestRecoveryCorruptionTable damages a full campaign's WAL in each of
// the ways the issue calls out and checks recovery serves the longest
// valid prefix and surfaces the damage in logs and metrics.
func TestRecoveryCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{})
	walBytes, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := campaignScript()
	sigs := prefixSignatures(t, ops)
	scan := wal.Scan(walBytes)
	if len(scan.Records) != len(ops) || scan.Corrupt != nil {
		t.Fatalf("campaign WAL: %d records, corrupt %v", len(scan.Records), scan.Corrupt)
	}
	lastStart := scan.Offsets[len(ops)-1]

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantOps  int
		wantGone bool // expect BytesTruncated > 0
	}{
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-7] }, len(ops) - 1, true},
		{"flipped CRC byte", func(b []byte) []byte { b[lastStart+4] ^= 0x10; return b }, len(ops) - 1, true},
		{"zero-length record", func(b []byte) []byte { return append(b, make([]byte, wal.HeaderSize)...) }, len(ops), true},
		{"garbage header", func(b []byte) []byte {
			g := make([]byte, 24)
			binary.LittleEndian.PutUint32(g, 0xFFFFFFF0)
			return append(b, g...)
		}, len(ops), true},
		{"valid frame, undecodable payload", func(b []byte) []byte {
			frame, err := wal.EncodeFrame([]byte("definitely-not-json"))
			if err != nil {
				t.Fatal(err)
			}
			return append(b, frame...)
		}, len(ops), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crashDir := t.TempDir()
			damaged := tc.mutate(append([]byte(nil), walBytes...))
			if err := os.WriteFile(filepath.Join(crashDir, walFileName), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			var logBuf bytes.Buffer
			store, d2, stats, err := OpenDurable(crashDir, testTasks(3), DurableOptions{
				Registry: reg,
				Logger:   log.New(&logBuf, "", 0),
			})
			if err != nil {
				t.Fatalf("recovery refused to start: %v", err)
			}
			defer d2.Close()
			if got := signature(t, store); got != sigs[tc.wantOps] {
				t.Errorf("recovered state != prefix of %d ops", tc.wantOps)
			}
			if stats.RecordsReplayed != tc.wantOps {
				t.Errorf("replayed %d records, want %d", stats.RecordsReplayed, tc.wantOps)
			}
			if tc.wantGone && stats.BytesTruncated == 0 {
				t.Error("no bytes reported truncated")
			}
			if tc.wantGone && stats.CorruptReason == "" {
				t.Error("no corruption reason surfaced")
			}
			// Recovery summary must land in logs and metrics.
			if !strings.Contains(logBuf.String(), "recovered") {
				t.Errorf("no recovery summary logged: %q", logBuf.String())
			}
			snap := reg.Snapshot()
			if snap.Gauges["wal.recovery_records_replayed"] != int64(tc.wantOps) {
				t.Errorf("wal.recovery_records_replayed = %d", snap.Gauges["wal.recovery_records_replayed"])
			}
			if tc.wantGone && snap.Gauges["wal.recovery_bytes_truncated"] == 0 {
				t.Error("wal.recovery_bytes_truncated not set")
			}
			// The repaired log must re-open cleanly with the same state.
			if err := d2.w.Close(); err != nil {
				t.Fatal(err)
			}
			store2, d3, stats2, err := OpenDurable(crashDir, testTasks(3), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d3.Close()
			if stats2.BytesTruncated != 0 || stats2.CorruptReason != "" {
				t.Errorf("second recovery still sees damage: %+v", stats2)
			}
			if signature(t, store2) != sigs[tc.wantOps] {
				t.Error("second recovery changed the state")
			}
		})
	}
}

// TestCrashMidAppendIsNotAcknowledged injects a crash inside a WAL write:
// the store must refuse to acknowledge the op (ErrDurability → HTTP 503),
// keep refusing mutations, and recover to exactly the acknowledged state.
func TestCrashMidAppendIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS())
	store, _, _, err := OpenDurable(dir, testTasks(3), DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	ops := campaignScript()
	for _, op := range ops[:5] {
		if err := applyOp(store, op); err != nil {
			t.Fatal(err)
		}
		acked++
	}

	ffs.CrashAfterBytes(10) // tear the next frame
	err = applyOp(store, ops[5])
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("crashed append returned %v, want ErrDurability", err)
	}
	if code, status := codeForError(err); code != CodeDurability || status != http.StatusServiceUnavailable {
		t.Errorf("wire mapping = %s/%d, want %s/503", code, status, CodeDurability)
	}
	if !errors.Is(sentinelForCode(CodeDurability), ErrDurability) {
		t.Error("durability code does not round-trip to its sentinel")
	}
	// The store must not have applied the unacknowledged op, and must
	// keep failing closed rather than diverging from the log.
	if ds, _ := store.Dataset(context.Background()); ds.NumAccounts() != 2 { // ana and bo after 5 ops
		t.Errorf("unacknowledged op changed state: %d accounts", ds.NumAccounts())
	}
	if err := applyOp(store, ops[6]); !errors.Is(err, ErrDurability) {
		t.Errorf("mutation after crash returned %v, want ErrDurability", err)
	}

	// Reboot: recovery yields exactly the acknowledged prefix.
	store2, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sigs := prefixSignatures(t, ops)
	if got := signature(t, store2); got != sigs[acked] {
		t.Errorf("recovered state != acknowledged prefix of %d ops", acked)
	}
	if stats.BytesTruncated == 0 {
		t.Error("torn frame not truncated")
	}
}

// TestFsyncFailureFailsClosed: when fsync starts failing, acknowledged
// data must already be safe and new ops must be refused, not silently
// accepted into a log that may not survive.
func TestFsyncFailureFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS())
	store, _, _, err := OpenDurable(dir, testTasks(3), DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ops := campaignScript()
	for _, op := range ops[:4] {
		if err := applyOp(store, op); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailSync(errors.New("injected fsync failure"))
	if err := applyOp(store, ops[4]); !errors.Is(err, ErrDurability) {
		t.Fatalf("unsynced op acknowledged: %v", err)
	}
	ffs.FailSync(nil)
	// Disk recovered: the platform resumes without a restart.
	if err := applyOp(store, ops[5]); err != nil {
		t.Fatalf("op after fsync recovery: %v", err)
	}
	live := signature(t, store)

	store2, d2, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// ops[4] wrote its frame before the failed fsync, so it may legally
	// survive; everything acknowledged must. Recovered state is either
	// the acked set or acked+ops[4] applied in log order.
	sigs := prefixSignatures(t, ops)
	got := signature(t, store2)
	if got != sigs[6] && got != sigs[5] {
		t.Error("recovered state lost an acknowledged operation")
	}
	// Whichever it is, the live store must have served the same state: a
	// record its WAL holds (and a restart recovers) must not be missing
	// from memory, nor the reverse.
	if got != live {
		t.Error("recovered state differs from the live state before the restart")
	}
}

// TestSnapshotCompaction checks periodic snapshots shrink the WAL and
// that snapshot + tail replay reassembles the full campaign.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{SnapshotEvery: 5, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ops := campaignScript()
	for _, op := range ops {
		if err := applyOp(store, op); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counters["wal.snapshots"]; got != int64(len(ops)/5) {
		t.Errorf("wal.snapshots = %d, want %d", got, len(ops)/5)
	}
	// 16 ops with a snapshot every 5 leaves one record in the tail.
	if size := d.WALSize(); size == 0 || size > 600 {
		t.Errorf("WAL size after compaction = %d, want a small nonzero tail", size)
	}
	want := signature(t, store)
	if err := d.w.Close(); err != nil { // crash-style stop: no final snapshot
		t.Fatal(err)
	}

	store2, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !stats.SnapshotLoaded || stats.SnapshotSeq == 0 {
		t.Errorf("snapshot not used: %+v", stats)
	}
	if got := signature(t, store2); got != want {
		t.Error("snapshot + WAL tail did not reassemble the campaign")
	}
}

// TestCrashBetweenSnapshotAndWALReset covers the compaction crash window:
// the snapshot has been renamed into place but the WAL still holds the
// same operations. Recovery must skip them by sequence number instead of
// double-applying or refusing.
func TestCrashBetweenSnapshotAndWALReset(t *testing.T) {
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{})
	walBytes, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	want := signature(t, d.store)
	if err := d.Snapshot(); err != nil { // snapshot written, WAL reset...
		t.Fatal(err)
	}
	if err := d.w.Close(); err != nil {
		t.Fatal(err)
	}
	// ...now resurrect the pre-reset WAL, as if the reset never hit disk.
	if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	store, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := signature(t, store); got != want {
		t.Error("stale WAL records were double-applied")
	}
	if stats.RecordsSkipped != len(campaignScript()) {
		t.Errorf("skipped %d stale records, want %d", stats.RecordsSkipped, len(campaignScript()))
	}
	if stats.RecordsReplayed != 0 {
		t.Errorf("replayed %d records that the snapshot already covered", stats.RecordsReplayed)
	}
}

// TestWALMetricsExported checks the durability instruments land in the
// registry served at /v1/metrics and /metrics.
func TestWALMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{SnapshotEvery: 6, Registry: reg})
	defer d.Close()

	snap := reg.Snapshot()
	n := int64(len(campaignScript()))
	if got := snap.Counters["wal.records"]; got != n {
		t.Errorf("wal.records = %d, want %d", got, n)
	}
	for _, h := range []string{"wal.append_seconds", "wal.fsync_seconds", "wal.snapshot_seconds"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("%s has no observations", h)
		}
	}
	if snap.Counters["wal.snapshots"] == 0 {
		t.Error("wal.snapshots counter not incremented")
	}
	if _, ok := snap.Gauges["wal.size_bytes"]; !ok {
		t.Error("wal.size_bytes gauge missing")
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal_append_seconds", "wal_fsync_seconds", "wal_snapshots"} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("prometheus export missing %s", name)
		}
	}
}

// TestDurableStoreOverHTTP runs the recovered store behind the real HTTP
// server: submissions journal, a kill (no final snapshot) loses nothing,
// and the restarted platform serves the same dataset.
func TestDurableStoreOverHTTP(t *testing.T) {
	dir := t.TempDir()
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store, nil))
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -80, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := client.RecordFeatureFingerprint(ctx, "ana", testFeatures(1)); err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "bo", Task: 1, Value: -70, Time: at(1)}); err != nil {
		t.Fatal(err)
	}
	want := signature(t, store)
	if err := d.w.Close(); err != nil { // kill -9, not graceful shutdown
		t.Fatal(err)
	}

	store2, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if stats.RecordsReplayed != 3 {
		t.Errorf("replayed %d records, want 3", stats.RecordsReplayed)
	}
	if got := signature(t, store2); got != want {
		t.Error("restarted platform lost acknowledged HTTP writes")
	}
}

// TestMixedLengthFingerprintsCannotBrickANode: feature vectors of lengths
// 3 and 2 used to be accepted, and the snapshot a clean Close wrote from
// them failed mcs validation ("fingerprint length 2 != 3"), so the node
// could not reopen. Uploads of any length but fingerprint.VectorLen now get
// 400 bad_fingerprint, and a log or snapshot written before the check
// loads without its short vectors, so the node reopens after Close.
func TestMixedLengthFingerprintsCannotBrickANode(t *testing.T) {
	ctx := context.Background()
	closeAndReopen := func(t *testing.T, dir string, d *Durability) *mcs.Dataset {
		t.Helper()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		store, d2, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer d2.Abort()
		ds, err := store.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	t.Run("upload", func(t *testing.T) {
		dir := t.TempDir()
		store, d, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(store, nil))
		defer srv.Close()
		client := NewClient(srv.URL)
		for _, n := range []int{3, 2} {
			err := client.RecordFeatureFingerprint(ctx, fmt.Sprintf("short-%d", n), testFeatures(1)[:n])
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadFingerprint {
				t.Fatalf("upload of %d features = %v, want 400 %s", n, err, CodeBadFingerprint)
			}
		}
		if err := client.RecordFeatureFingerprint(ctx, "full", testFeatures(1)); err != nil {
			t.Fatal(err)
		}
		ds := closeAndReopen(t, dir, d)
		if len(ds.Accounts) != 1 || ds.Accounts[0].ID != "full" || !reflect.DeepEqual(ds.Accounts[0].Fingerprint, testFeatures(1)) {
			t.Fatalf("reopened dataset = %+v, want only full's %d features", ds.Accounts, fingerprint.VectorLen)
		}
	})

	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		var frames []byte
		for i, n := range []int{3, 2} {
			p, err := json.Marshal(walRecord{Seq: uint64(i + 1), Op: opFingerprint, Account: fmt.Sprintf("short-%d", n), Features: testFeatures(1)[:n]})
			if err != nil {
				t.Fatal(err)
			}
			frame, err := wal.EncodeFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame...)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), frames, 0o644); err != nil {
			t.Fatal(err)
		}
		_, d, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ds := closeAndReopen(t, dir, d); len(ds.Accounts) != 0 {
			t.Fatalf("replay kept %d accounts from short feature records, want 0", len(ds.Accounts))
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		// A snapshot written before the check holds uniform 3-feature
		// vectors: valid for mcs until a full-length upload joins them.
		dir := t.TempDir()
		old := mcs.NewDataset(2)
		old.AddAccount(mcs.Account{ID: "old", Observations: []mcs.Observation{{Task: 0, Value: -50, Time: at(0)}}, Fingerprint: testFeatures(1)[:3]})
		var buf bytes.Buffer
		if err := old.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		env, err := json.Marshal(snapshotFile{Version: snapshotVersion, Dataset: buf.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), env, 0o644); err != nil {
			t.Fatal(err)
		}
		store, d, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.RecordFingerprintFeatures(ctx, "full", testFeatures(2)); err != nil {
			t.Fatal(err)
		}
		ds := closeAndReopen(t, dir, d)
		if len(ds.Accounts) != 2 || len(ds.Accounts[0].Fingerprint) != 0 || len(ds.Accounts[1].Fingerprint) != fingerprint.VectorLen {
			t.Fatalf("reopened dataset = %+v, want old's report without its short vector and full's %d features", ds.Accounts, fingerprint.VectorLen)
		}
	})

	// A snapshot that already mixes 3- and 2-feature vectors, as an
	// earlier version could write one, fails mcs validation as it stands.
	mixed := mcs.NewDataset(2)
	for i, n := range []int{3, 2, fingerprint.VectorLen} {
		mixed.AddAccount(mcs.Account{ID: fmt.Sprintf("fp-%d", n), Observations: []mcs.Observation{{Task: i % 2, Value: -50, Time: at(i)}}, Fingerprint: testFeatures(1)[:n]})
	}
	var mixedJSON bytes.Buffer
	if err := mixed.EncodeJSON(&mixedJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := mcs.DecodeJSON(bytes.NewReader(mixedJSON.Bytes())); err == nil {
		t.Fatal("mcs accepted mixed fingerprint lengths; the subtests below would be vacuous")
	}
	wantMixed := func(t *testing.T, ds *mcs.Dataset) {
		t.Helper()
		if len(ds.Accounts) != 3 {
			t.Fatalf("dataset has %d accounts, want the snapshot's 3", len(ds.Accounts))
		}
		for i, a := range ds.Accounts {
			switch {
			case i == 2 && !reflect.DeepEqual(a.Fingerprint, testFeatures(1)):
				t.Errorf("%s lost its %d features", a.ID, fingerprint.VectorLen)
			case i < 2 && (len(a.Fingerprint) != 0 || len(a.Observations) != 1):
				t.Errorf("%s = %+v, want its report without its short vector", a.ID, a)
			}
		}
	}

	t.Run("mixed snapshot", func(t *testing.T) {
		dir := t.TempDir()
		env, err := json.Marshal(snapshotFile{Version: snapshotVersion, Dataset: mixedJSON.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), env, 0o644); err != nil {
			t.Fatal(err)
		}
		store, d, _, err := OpenDurable(dir, testTasks(2), DurableOptions{})
		if err != nil {
			t.Fatalf("open over a mixed-length snapshot: %v", err)
		}
		ds, err := store.Dataset(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantMixed(t, ds)
		wantMixed(t, closeAndReopen(t, dir, d))
	})

	t.Run("mixed ship", func(t *testing.T) {
		node := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x"})
		resp, err := node.repl.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 7, Snapshot: mixedJSON.Bytes(), SnapshotSeq: 7})
		if err != nil || resp.AppliedSeq != 7 {
			t.Fatalf("ship of a mixed-length snapshot: %+v, %v; want applied 7", resp, err)
		}
		node.store.mu.RLock()
		ds := node.store.datasetLocked()
		node.store.mu.RUnlock()
		wantMixed(t, ds)
	})
}

// FuzzDurableRecovery feeds recovery WAL files whose frames all carry a
// valid CRC, so inputs reach the record decode and replayRecordLocked's
// validation instead of stopping at the frame scan. The input's bytes up
// to the first NUL are split at newlines into frame payloads; the bytes
// after it are appended unframed, as a torn or corrupt tail. Recovery
// repairs and never refuses, so OpenDurable must open every such log;
// after a crash a second open must find a clean log holding the same
// dataset, and after a clean Close, which writes a snapshot, so must a
// third. The log lives on an in-memory wal.FS (memFS), so an input costs
// no directory and no fsync; TestTortureCrashAtEveryOffset and
// TestRecoveryCorruptionTable cover recovery on the OS filesystem.
func FuzzDurableRecovery(f *testing.F) {
	var all [][]byte
	for _, rec := range []walRecord{
		{Seq: 1, Op: opSubmit, Account: "ana", Task: 0, Value: -80.5, Time: at(0)},
		{Seq: 2, Op: opFingerprint, Account: "ana", Features: testFeatures(1)},
		{Seq: 3, Op: opFence, Ring: 2, Accounts: []string{"ana"}},
		{Seq: 4, Op: opUnfencePurge, Ring: 2},
	} {
		p, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		all = append(all, p)
	}
	f.Add(append(bytes.Join(all, []byte("\n")), 0, 9, 0, 0)) // every op, then a torn header
	f.Fuzz(func(t *testing.T, data []byte) {
		body, tail, _ := bytes.Cut(data, []byte{0})
		var framed []byte
		for _, p := range bytes.Split(body, []byte("\n")) {
			if frame, err := wal.EncodeFrame(p); err == nil { // not empty, not oversized
				framed = append(framed, frame...)
			}
		}
		const dir = "node"
		fsys := newMemFS()
		f, err := fsys.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(framed, tail...)); err != nil {
			t.Fatal(err)
		}
		opts := DurableOptions{FS: fsys}
		store, d, _, err := OpenDurable(dir, testTasks(3), opts)
		if err != nil {
			t.Fatalf("recovery refused the log: %v", err)
		}
		want := signature(t, store)
		if err := d.Abort(); err != nil {
			t.Fatal(err)
		}
		again, d2, stats, err := OpenDurable(dir, testTasks(3), opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if stats.BytesTruncated != 0 {
			t.Errorf("reopen truncated %d bytes of a repaired log (%s)", stats.BytesTruncated, stats.CorruptReason)
		}
		if got := signature(t, again); got != want {
			t.Errorf("reopen recovered a different dataset:\n%s\nwant\n%s", got, want)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
		third, d3, _, err := OpenDurable(dir, testTasks(3), opts)
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer d3.Abort()
		if got := signature(t, third); got != want {
			t.Errorf("reopen after Close recovered a different dataset:\n%s\nwant\n%s", got, want)
		}
	})
}
