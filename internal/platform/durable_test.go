package platform

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
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

// TestSnapshotCompaction checks that the WAL compacts exactly when it
// holds SnapshotEvery records and as many bytes as the last snapshot, and
// that snapshot + tail replay reassembles the full campaign.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	const every = 5
	store, d, _, err := OpenDurable(dir, testTasks(3), DurableOptions{SnapshotEvery: every, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ops := campaignScript()
	var compactions int64
	since, snapSize := 0, int64(0)
	for i, op := range ops {
		before := d.WALSize()
		if err := applyOp(store, op); err != nil {
			t.Fatal(err)
		}
		store.mu.RLock()
		frame := int64(wal.HeaderSize + len(d.frames[len(d.frames)-1]))
		size, lastSnap := d.w.Size(), int64(d.snapshotSize)
		store.mu.RUnlock()
		since++
		if since >= every && before+frame >= snapSize {
			compactions, since, snapSize = compactions+1, 0, lastSnap
			if size != 0 {
				t.Errorf("op %d: %d records and %d WAL bytes against a %d-byte snapshot, but the WAL holds %d bytes, want a compaction",
					i, every, before+frame, snapSize, size)
			}
		} else if size != before+frame {
			t.Errorf("op %d: WAL %d → %d bytes for a %d-byte frame, want no compaction", i, before, size, frame)
		}
		if got := reg.Snapshot().Counters["wal.snapshots"]; got != compactions {
			t.Fatalf("op %d: wal.snapshots = %d, want %d", i, got, compactions)
		}
	}
	// The first compaction comes after 5 records, when there is no
	// snapshot yet; the campaign grows past the byte rule at least once
	// more, and leaves a tail that the last snapshot bounds.
	if compactions < 2 {
		t.Errorf("%d compactions over the campaign, want at least 2", compactions)
	}
	if size := d.WALSize(); size == 0 || size > snapSize {
		t.Errorf("WAL size after compaction = %d, want a nonzero tail below the %d-byte snapshot", size, snapSize)
	}
	want := signature(t, store)
	if err := d.w.Close(); err != nil { // crash-style stop: no final snapshot
		t.Fatal(err)
	}

	store2, d2, stats, err := OpenDurable(dir, testTasks(3), DurableOptions{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !stats.SnapshotLoaded || stats.SnapshotSeq == 0 {
		t.Errorf("snapshot not used: %+v", stats)
	}
	// The reopened node picks the rule up where the crash left it: the
	// last snapshot's size, and the WAL's records since it.
	if int64(d2.snapshotSize) != snapSize || d2.sinceSnapshot != since {
		t.Errorf("reopened: snapshot %d bytes and %d records since, want %d and %d", d2.snapshotSize, d2.sinceSnapshot, snapSize, since)
	}
	if got := signature(t, store2); got != want {
		t.Error("snapshot + WAL tail did not reassemble the campaign")
	}
}

// TestCompactionIsAmortized grows a store in envelopes of 16 reports, ten
// per account as in perfbench's campaign, and checks the bounds of the
// compaction rule after every commit:
//   - the WAL never holds more than the larger of the last snapshot and
//     SnapshotEvery−1 records, plus the commit just made;
//   - the bytes compactions wrote never exceed the WAL bytes appended plus
//     the latest snapshot, so under twice the WAL bytes plus the empty
//     campaign's snapshot;
//   - the frames kept never exceed 3 × SnapshotEvery, and cover the last
//     2 × SnapshotEvery records.
//
// Over the run each doubling of the store adds at most three compactions,
// and at sampled commits a copy of the disk reopens to the live store.
func TestCompactionIsAmortized(t *testing.T) {
	const (
		every    = 32
		envelope = 16
		commits  = 1200 // 19,200 reports
		tasks    = 10
	)
	empty := newMemFS()
	_, d0, _, err := OpenDurable("node", testTasks(tasks), DurableOptions{FS: empty})
	if err != nil {
		t.Fatal(err)
	}
	if err := d0.Close(); err != nil {
		t.Fatal(err)
	}
	emptySnap := int64(d0.snapshotSize)

	fsys := newMemFS()
	reg := obs.NewRegistry()
	store, d, _, err := OpenDurable("node", testTasks(tasks), DurableOptions{FS: fsys, SnapshotEvery: every, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	var walBytes, snapBytes, maxFrame, compactions int64
	atPower := map[int]int64{} // compactions once the store holds a power of two envelopes
	for c := 0; c < commits; c++ {
		items := make([]BatchSubmission, envelope)
		for i := range items {
			r := c*envelope + i
			items[i] = BatchSubmission{Account: fmt.Sprintf("acct-%05d", r/tasks), Task: r % tasks,
				Value: -60 - float64(r%37)*0.75, At: at(r % 600)}
		}
		for i, err := range store.SubmitBatch(ctx, items) {
			if err != nil {
				t.Fatalf("commit %d item %d: %v", c, i, err)
			}
		}
		store.mu.RLock()
		size, snap, kept, seq := d.w.Size(), int64(d.snapshotSize), len(d.frames), d.seq
		var batch int64
		for _, p := range d.frames[kept-envelope:] {
			frame := int64(wal.HeaderSize + len(p))
			batch += frame
			maxFrame = max(maxFrame, frame)
		}
		store.mu.RUnlock()
		walBytes += batch
		if n := counterVal(reg, "wal.snapshots"); n != compactions {
			if n != compactions+1 || size != 0 {
				t.Fatalf("commit %d: %d compactions after %d, WAL %d bytes", c, n, compactions, size)
			}
			compactions, snapBytes = n, snapBytes+snap
		}
		if size > max(snap, (every-1)*maxFrame)+batch {
			t.Fatalf("commit %d: WAL %d bytes, over the %d-byte snapshot and %d records of up to %d bytes, plus the %d-byte commit",
				c, size, snap, every-1, maxFrame, batch)
		}
		if snapBytes > walBytes+snap || snapBytes > 2*walBytes+emptySnap {
			t.Fatalf("commit %d: compactions wrote %d bytes for %d WAL bytes (latest snapshot %d)", c, snapBytes, walBytes, snap)
		}
		if kept > 3*every || uint64(kept) < min(seq, 2*every) {
			t.Fatalf("commit %d: %d frames kept through seq %d, want from %d to %d", c, kept, seq, min(seq, 2*every), 3*every)
		}
		if n := c + 1; n&(n-1) == 0 {
			atPower[n] = compactions
		}
		if c%97 == 0 {
			got, d2, _, err := OpenDurable("node", testTasks(tasks), DurableOptions{FS: fsys.clone()})
			if err != nil {
				t.Fatalf("commit %d: reopen: %v", c, err)
			}
			if signature(t, got) != signature(t, store) {
				t.Fatalf("commit %d: the reopened store differs from the live one", c)
			}
			_ = d2.Abort()
		}
	}
	if got := counterVal(reg, "wal.snapshot_bytes"); got != snapBytes {
		t.Errorf("wal.snapshot_bytes = %d, want %d", got, snapBytes)
	}
	for n := 32; 2*n <= commits; n *= 2 {
		if added := atPower[2*n] - atPower[n]; added > 3 {
			t.Errorf("%d compactions from %d to %d envelopes, want at most 3 per doubling", added, n, 2*n)
		}
	}
	t.Logf("%d compactions, %d snapshot bytes for %d WAL bytes (%.2f×)", compactions, snapBytes, walBytes, float64(snapBytes)/float64(walBytes))
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

// imagingFS is a memFS that keeps a copy of every file as it stands
// before each rename and each truncate: the disk that a crash at that
// step leaves behind (memFS persists every write at once).
type imagingFS struct {
	*memFS
	images []*memFS
}

func (f *imagingFS) image() { f.images = append(f.images, f.clone()) }

func (f *imagingFS) Rename(oldpath, newpath string) error {
	f.image()
	return f.memFS.Rename(oldpath, newpath)
}

func (f *imagingFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	file, err := f.memFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return imagingFile{file, f}, nil
}

// imagingFile images its filesystem before each truncate.
type imagingFile struct {
	wal.File
	fs interface{ image() }
}

func (f imagingFile) Truncate(size int64) error {
	f.fs.image()
	return f.File.Truncate(size)
}

// TestCrashWhileAdoptingSnapshot covers the adoption crash window: a node
// that adopts a shipped snapshot abandons its own history, so a crash at
// any step of the adoption must recover either that history at its old
// epoch or the adopted state at the new one, never the abandoned records
// replayed on top of the adopted snapshot under the new epoch (the node
// would then answer a probe with a cursor past records it does not hold).
func TestCrashWhileAdoptingSnapshot(t *testing.T) {
	ctx := context.Background()
	adopted := NewLocalStore(testTasks(3))
	for i := 0; i < 2; i++ {
		if err := adopted.Submit(ctx, fmt.Sprintf("new-%d", i), 0, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := signature(t, adopted)

	fsys := &imagingFS{memFS: newMemFS()}
	store, d, _, err := OpenDurable("node", testTasks(3), DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := store.Submit(ctx, fmt.Sprintf("old-%d", i), 0, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplication(store, d, ReplicationOptions{FollowerOf: "x", Registry: obs.NewRegistry()})
	defer r.Close()
	fsys.images = nil
	if _, err := r.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 2, Snapshot: []byte(want), SnapshotSeq: 2}); err != nil {
		t.Fatal(err)
	}
	fsys.image() // and after the adoption completed
	if len(fsys.images) < 3 {
		t.Fatalf("%d crash points, want one before the rename, one before the reset and one after", len(fsys.images))
	}
	for i, img := range fsys.images {
		got, d2, stats, err := OpenDurable("node", testTasks(3), DurableOptions{FS: img})
		if err != nil {
			t.Fatalf("crash point %d: reopen: %v", i, err)
		}
		seq, epoch := d2.seq, d2.epoch
		switch epoch {
		case 1:
			if seq != 2 || stats.RecordsReplayed != 0 || signature(t, got) != want {
				t.Errorf("crash point %d: adopted snapshot plus %d abandoned records: seq %d, epoch 1, %d accounts",
					i, stats.RecordsReplayed, seq, got.NumAccounts())
			}
		case 0:
			ds, err := got.Dataset(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range ds.Accounts {
				if !strings.HasPrefix(a.ID, "old-") {
					t.Errorf("crash point %d: epoch 0 recovered %s", i, a.ID)
				}
			}
			if uint64(len(ds.Accounts)) != seq {
				t.Errorf("crash point %d: epoch 0, seq %d, %d accounts: not a prefix of the old history", i, seq, len(ds.Accounts))
			}
		default:
			t.Errorf("crash point %d: epoch %d", i, epoch)
		}
		_ = d2.Abort()
	}
}

// dirSyncFS is a memFS on which a rename reaches the disk only at the next
// sync of a directory, all that POSIX promises: the disk a power cut
// leaves is the live files with every rename since then undone (file
// contents, which memFS keeps at once, stay). It images that disk before
// every rename, truncate and directory sync, and on demand, each with the
// acks given by then.
type dirSyncFS struct {
	*memFS
	pending []renamed // since the last directory sync, oldest first
	acked   int
	images  []ackedImage
}

// renamed is one rename the disk may not hold yet: the file that moved,
// and what its new name held before (nil if nothing).
type renamed struct {
	from, to        string
	moved, replaced *[]byte
}

// ackedImage is a disk a crash could leave, and the acks given before it.
type ackedImage struct {
	fs    *memFS
	acked int
}

func (f *dirSyncFS) image() {
	img := f.clone()
	f.mu.Lock()
	for i := len(f.pending) - 1; i >= 0; i-- {
		r := f.pending[i]
		moved := append([]byte(nil), *r.moved...)
		img.files[r.from] = &moved
		delete(img.files, r.to)
		if r.replaced != nil {
			replaced := append([]byte(nil), *r.replaced...)
			img.files[r.to] = &replaced
		}
	}
	f.mu.Unlock()
	f.images = append(f.images, ackedImage{img, f.acked})
}

func (f *dirSyncFS) Rename(oldpath, newpath string) error {
	f.image()
	f.mu.Lock()
	r := renamed{from: oldpath, to: newpath, moved: f.files[oldpath], replaced: f.files[newpath]}
	f.mu.Unlock()
	if err := f.memFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.pending = append(f.pending, r)
	return nil
}

func (f *dirSyncFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	file, err := f.memFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if _, dir := file.(memDir); dir {
		return syncedDir{file, f}, nil
	}
	return imagingFile{file, f}, nil
}

// syncedDir is a directory of a dirSyncFS: syncing it makes every rename
// so far durable.
type syncedDir struct {
	wal.File
	fs *dirSyncFS
}

func (d syncedDir) Sync() error {
	d.fs.image()
	d.fs.pending = nil
	return d.File.Sync()
}

// TestCrashBeforeDirectorySyncLosesNoAck: where a rename is durable only
// once its directory is synced, a crash at any step must still recover
// every acknowledged record. A compaction that reset the WAL before the
// snapshot's rename was durable would leave the previous snapshot and an
// empty log; an adoption whose rename was not durable would replay the
// frames the follower acked next on top of the previous snapshot.
func TestCrashBeforeDirectorySyncLosesNoAck(t *testing.T) {
	ctx := context.Background()
	t.Run("compaction", func(t *testing.T) {
		ops := campaignScript()
		sigs := prefixSignatures(t, ops)
		fsys := &dirSyncFS{memFS: newMemFS()}
		store, d, _, err := OpenDurable("node", testTasks(3), DurableOptions{FS: fsys, SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			fsys.acked = i
			if err := applyOp(store, op); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				fsys.acked = i + 1
				if err := d.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		fsys.acked = len(ops)
		fsys.image()
		if len(fsys.images) < 8 {
			t.Fatalf("%d crash points, want one before every rename and WAL reset", len(fsys.images))
		}
		for i, img := range fsys.images {
			got, d2, _, err := OpenDurable("node", testTasks(3), DurableOptions{FS: img.fs})
			if err != nil {
				t.Fatalf("crash point %d: reopen: %v", i, err)
			}
			sig := signature(t, got)
			r := len(sigs) - 1
			for r >= 0 && sigs[r] != sig {
				r--
			}
			if r < img.acked {
				t.Errorf("crash point %d: recovered %d ops (-1: no prefix), %d were acknowledged", i, r, img.acked)
			}
			_ = d2.Abort()
		}
	})
	t.Run("adoption", func(t *testing.T) {
		adopted := NewLocalStore(testTasks(3))
		var sigs []string // sigs[k]: the adopted lineage through seq 2+k
		for i := 0; i < 4; i++ {
			if i >= 2 {
				sigs = append(sigs, signature(t, adopted))
			}
			if err := adopted.Submit(ctx, fmt.Sprintf("new-%d", i), 0, float64(i), at(i)); err != nil {
				t.Fatal(err)
			}
		}
		sigs = append(sigs, signature(t, adopted))
		var frames []ReplFrame // seqs 3 and 4: new-2 and new-3
		for i := 2; i < 4; i++ {
			p, err := json.Marshal(walRecord{Seq: uint64(i + 1), Op: opSubmit, Account: fmt.Sprintf("new-%d", i), Value: float64(i), Time: at(i)})
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, ReplFrame{Seq: uint64(i + 1), CRC: crc32.ChecksumIEEE(p), Payload: p})
		}

		fsys := &dirSyncFS{memFS: newMemFS()}
		store, d, _, err := OpenDurable("node", testTasks(3), DurableOptions{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := store.Submit(ctx, fmt.Sprintf("old-%d", i), 0, float64(i), at(i)); err != nil {
				t.Fatal(err)
			}
		}
		r := NewReplication(store, d, ReplicationOptions{FollowerOf: "x", Registry: obs.NewRegistry()})
		defer r.Close()
		fsys.images, fsys.acked = nil, -1 // until the adoption is acked, the old history may come back
		if _, err := r.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 2, Snapshot: []byte(sigs[0]), SnapshotSeq: 2}); err != nil {
			t.Fatal(err)
		}
		fsys.acked = 0
		fsys.image()
		if resp, err := r.ApplyShip(ctx, ReplShipRequest{Epoch: 1, PrimarySeq: 4, Frames: frames}); err != nil || resp.AppliedSeq != 4 {
			t.Fatalf("frames after the adoption: applied through %d, %v", resp.AppliedSeq, err)
		}
		fsys.acked = len(frames)
		fsys.image()
		for i, img := range fsys.images {
			got, d2, _, err := OpenDurable("node", testTasks(3), DurableOptions{FS: img.fs})
			if err != nil {
				t.Fatalf("crash point %d: reopen: %v", i, err)
			}
			seq, epoch, sig := d2.seq, d2.epoch, signature(t, got)
			switch {
			case epoch == 1 && seq >= 2 && seq <= 4 && sig == sigs[seq-2] && int(seq-2) >= img.acked:
			case epoch == 0 && img.acked < 0 && uint64(got.NumAccounts()) == seq && !strings.Contains(sig, "new-"):
				// The adoption did not reach the disk: a prefix of the
				// history it abandons, which the primary replaces again.
			default:
				t.Errorf("crash point %d (%d acked): recovered seq %d, epoch %d, %d accounts", i, img.acked, seq, epoch, got.NumAccounts())
			}
			_ = d2.Abort()
		}
	})
}

// TestSnapshotEnvelopeIsByteIdentical: snapshot.json is exactly what
// json.Marshal writes for the envelope with the dataset indented inside
// it, as earlier versions wrote it, fence and epoch included.
func TestSnapshotEnvelopeIsByteIdentical(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := runCampaign(t, dir, DurableOptions{})
	if err := d.store.Fence(ctx, 7, []string{"bo", "<cy&>"}); err != nil {
		t.Fatal(err)
	}
	if err := d.persistEpoch(3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(signature(t, d.store)), "", "  "); err != nil {
		t.Fatal(err)
	}
	d.store.mu.RLock()
	fence, fenceVersion := d.store.fenceStateLocked()
	env := snapshotFile{Version: snapshotVersion, Seq: d.seq, Epoch: d.epoch, Dataset: indented.Bytes(),
		Fence: fence, FenceVersion: fenceVersion}
	d.store.mu.RUnlock()
	want, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if env.Epoch != 3 || len(env.Fence) != 2 || !bytes.Equal(got, want) {
		t.Fatalf("snapshot.json differs from the json.Marshal envelope:\n got %s\nwant %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
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
	// wal.snapshot_bytes adds what each compaction writes.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["wal.snapshot_bytes"] - snap.Counters["wal.snapshot_bytes"]; snap.Counters["wal.snapshot_bytes"] == 0 || got != info.Size() {
		t.Errorf("wal.snapshot_bytes rose by %d for a %d-byte snapshot (from %d)", got, info.Size(), snap.Counters["wal.snapshot_bytes"])
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal_append_seconds", "wal_fsync_seconds", "wal_snapshots", "wal_snapshot_bytes"} {
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
