package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/wal"
)

// Durable file layout inside a data directory.
const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
	snapshotTempName = "snapshot.json.tmp"
)

// snapshotVersion gates the snapshot envelope schema.
const snapshotVersion = 1

// WAL operation tags carried in walRecord.Op.
const (
	opSubmit      = "submit"
	opFingerprint = "fingerprint"
	// opFence marks a set of accounts as moved off this shard by an online
	// reshard (see Fencer). A fence is a mutation like any other: journaled
	// before it takes effect and shipped to followers verbatim, so a
	// promoted follower refuses the same writes its dead primary did.
	opFence = "fence"
	// opUnfencePurge drops the data of every account fenced at or below
	// the record's ring version — the post-migration GC (see
	// Fencer.PurgeFenced).
	// The fence map and fence-version watermark survive the purge, so the
	// shard keeps answering wrong_shard to stale writers; only the moved
	// observations and fingerprints are released. Journaled and shipped
	// like any write, so followers purge in lockstep.
	opUnfencePurge = "unfence_purge"
)

// walRecord is one durable mutation, JSON-encoded as the payload of a WAL
// frame. Account registration is implicit: replaying an account's first
// record re-registers it, in the same order the WAL was written.
type walRecord struct {
	Seq      uint64    `json:"seq"`
	Op       string    `json:"op"`
	Account  string    `json:"account"`
	Task     int       `json:"task,omitempty"`
	Value    float64   `json:"value,omitempty"`
	Time     time.Time `json:"time"`
	Features []float64 `json:"features,omitempty"`
	// Ring and Accounts are opFence fields: the ring version the fence was
	// installed at and the accounts it covers.
	Ring     uint64   `json:"ring,omitempty"`
	Accounts []string `json:"accounts,omitempty"`
}

// snapshotFile is the envelope written to snapshot.json: the campaign in
// the stable mcs JSON schema plus the WAL sequence number it covers, so
// recovery can skip WAL records the snapshot already contains (the
// crash-between-snapshot-and-WAL-reset window). Epoch is the replication
// epoch the node last belonged to; it rides in the envelope rather than
// in WAL records so a follower's sequence numbers stay byte-identical to
// the primary's (see repl.go for the epoch rules).
type snapshotFile struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Dataset json.RawMessage `json:"dataset"`
	// Fence and FenceVersion carry resharding fence state across WAL
	// compaction, same as Epoch: the WAL resets on snapshot, so a fence
	// journaled as opFence must also ride in the envelope or a restart
	// after compaction would forget it and take writes for moved accounts.
	Fence        map[string]uint64 `json:"fence,omitempty"`
	FenceVersion uint64            `json:"fence_version,omitempty"`
}

// DurableOptions tunes OpenDurable.
type DurableOptions struct {
	// FS is the filesystem seam; nil means the real OS filesystem. Tests
	// inject a wal.FaultFS here to script crashes.
	FS wal.FS
	// SnapshotEvery compacts the WAL into a fresh snapshot after this
	// many appended records; 0 snapshots only at Close. A node keeps the
	// payload of every frame since the compaction before last in memory,
	// so a follower or export tail less than one interval behind catches
	// up from frames, not a snapshot: about 2 × SnapshotEvery frames of
	// about 170 bytes (350 KB at 1024). With 0 it keeps every frame since
	// open, which is the WAL OpenDurable already reads into memory.
	SnapshotEvery int
	// CommitLinger bounds how long a group commit waits for company. Every
	// mutation is journaled (buffered) and applied under the store lock,
	// and the fsync that acknowledges it runs outside the lock, coalescing
	// every record appended in the meantime into one sync. The leader of
	// an fsync round waits up to CommitLinger for more records to join
	// (ending early once CommitMaxBatch have accumulated), so the linger
	// bounds the extra ack latency a lone submitter pays. Zero fsyncs as
	// soon as a leader is free, still coalescing whatever queued behind
	// the sync in flight.
	//
	// An acknowledged mutation has been fsynced, but a mutation is visible
	// to reads between its apply and its group fsync. If that fsync fails,
	// the caller gets ErrDurability (the op is NOT acknowledged) while the
	// store keeps the applied state, which matches the log it was written
	// to; a retry then reports ErrDuplicateReport, the same ambiguous-ack
	// outcome a torn network ack already produces.
	CommitLinger time.Duration
	// CommitMaxBatch caps how many records a group commit waits for
	// before fsyncing without further linger; 0 means 64.
	CommitMaxBatch int
	// Registry receives WAL metrics; nil means obs.Default().
	Registry *obs.Registry
	// Logger receives recovery and snapshot notices; nil disables them.
	Logger *log.Logger
}

// RecoveryStats summarizes what OpenDurable reconstructed from disk.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot file was found.
	SnapshotLoaded bool
	// SnapshotSeq is the WAL sequence number the snapshot covers.
	SnapshotSeq uint64
	// WALRecords is the number of valid records in the WAL.
	WALRecords int
	// RecordsReplayed is how many WAL records changed recovered state.
	RecordsReplayed int
	// RecordsSkipped counts stale records (already covered by the
	// snapshot) and records the replay validator rejected.
	RecordsSkipped int
	// BytesTruncated is the torn/corrupt tail cut off the WAL.
	BytesTruncated int64
	// CorruptReason explains the truncation ("" when the tail was clean).
	CorruptReason string
}

// Durability journals a Store's mutations into a write-ahead log and
// periodically compacts the log into snapshots. All methods that touch
// the WAL run under the owning store's mutex: appendLocked and
// maybeCompactLocked are called by the store with the lock held, and the
// public Snapshot/Close take it themselves. The group fsync in
// waitDurable runs outside it.
type Durability struct {
	dir           string
	fs            wal.FS
	w             *wal.Writer
	store         *LocalStore
	seq           uint64 // sequence number of the last frame written
	sinceSnapshot int
	snapshotEvery int
	snapshotSize  int // the last snapshot's length, to size the next one's buffer
	gc            *groupCommit
	reg           *obs.Registry
	log           *log.Logger
	closed        bool

	// Replication bookkeeping (all guarded by the store mutex like seq).
	// epoch is the replication epoch persisted in the snapshot envelope.
	// frames holds the payloads of the frames (seq-len(frames), seq],
	// which framesSince serves from memory: the first prevLen are the
	// generation the last compaction dropped from the WAL file, the rest
	// are in it. Payloads are never mutated once appended, so they are
	// shared with the frames framesSince returns. repl is the attached
	// replication manager (nil on an unreplicated node); it is set once by
	// NewReplication before the store is shared.
	epoch   uint64
	frames  [][]byte
	prevLen int
	repl    *Replication
}

// commitToken identifies journaled mutations by the sequence number of
// the last one. The store holds it across the lock release and redeems it
// with waitDurable before acknowledging; the replication layer gates a
// semi-sync ack on the same number. epoch is the replication epoch the
// records were appended under: the semi-sync settle refuses to ack a
// token whose lineage has since changed (a demotion's snapshot reset may
// have rolled the records back). The zero token means "nothing
// journaled".
type commitToken struct {
	seq   uint64
	epoch uint64
}

// groupCommit coalesces concurrent WAL fsyncs. Appenders (holding the
// store lock) publish the highest buffered sequence number; waiters
// (having released the store lock) elect a leader that fsyncs once for
// every record appended since the last sync, lingering briefly to let
// stragglers join. A snapshot makes everything durable at once and
// completes all waiters.
type groupCommit struct {
	linger   time.Duration
	maxBatch int

	mu       sync.Mutex
	cond     *sync.Cond
	appended uint64        // highest seq buffered in the WAL file
	synced   uint64        // highest seq known durable (fsync or snapshot)
	syncing  bool          // a leader is in flight
	wake     chan struct{} // pokes a lingering leader when the batch fills
	waiting  int           // goroutines blocked in waitDurable
	failSeq  uint64        // highest seq covered by a failed sync attempt
	failErr  error         // the error of that attempt
}

func newGroupCommit(linger time.Duration, maxBatch int) *groupCommit {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	c := &groupCommit{linger: linger, maxBatch: maxBatch, wake: make(chan struct{}, 1)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// noteAppended publishes seq as buffered. Called with the store lock held
// (appends are serialized), so seq is monotone.
func (c *groupCommit) noteAppended(seq uint64) {
	c.mu.Lock()
	c.appended = seq
	full := c.appended-c.synced >= uint64(c.maxBatch)
	c.mu.Unlock()
	if full {
		select { // wake a lingering leader: the batch is as big as it gets
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// markDurable records that everything up to seq is durable (a snapshot
// fsynced the full state) and releases every waiter at or below it.
func (c *groupCommit) markDurable(seq uint64) {
	c.mu.Lock()
	if seq > c.synced {
		c.synced = seq
	}
	if seq > c.appended {
		c.appended = seq
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// wait blocks until seq is durable (nil) or a sync attempt covering seq
// failed (that attempt's error). The first waiter to find no leader in
// flight becomes the leader: it lingers (bounded, ended early by a full
// batch), fsyncs once via sync, and publishes the outcome for everyone
// it covered.
func (c *groupCommit) wait(seq uint64, sync func() error, synced func(records, waiters int)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiting++
	defer func() { c.waiting-- }()
	for {
		if c.synced >= seq {
			return nil
		}
		if c.failSeq >= seq && c.failErr != nil {
			return c.failErr
		}
		if c.syncing {
			c.cond.Wait()
			continue
		}
		// Become the leader for this round.
		c.syncing = true
		if c.linger > 0 && c.appended-c.synced < uint64(c.maxBatch) {
			c.mu.Unlock()
			t := time.NewTimer(c.linger)
			select {
			case <-c.wake:
				t.Stop()
			case <-t.C:
			}
			c.mu.Lock()
		}
		target := c.appended
		covered := target - c.synced
		waiters := c.waiting
		c.mu.Unlock()
		err := sync()
		c.mu.Lock()
		c.syncing = false
		if err == nil {
			if target > c.synced {
				c.synced = target
			}
			if synced != nil {
				synced(int(covered), waiters)
			}
		} else if target > c.failSeq {
			c.failSeq = target
			c.failErr = err
		}
		c.cond.Broadcast()
	}
}

// OpenDurable opens (or creates) the durable platform state in dir and
// returns the recovered store with its attached durability layer. The
// recovery sequence is: load snapshot.json if present, then replay the
// WAL tail on top, truncating at the first torn or corrupt record — a
// damaged directory recovers to the longest valid prefix and serves,
// rather than crash-looping. tasks is used only when no snapshot exists
// (a snapshot carries its own task list).
func OpenDurable(dir string, tasks []mcs.Task, opts DurableOptions) (*LocalStore, *Durability, RecoveryStats, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS()
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	var stats RecoveryStats
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("platform: durable dir: %w", err)
	}
	// A leftover temp file is a crash mid-snapshot-write; the durable
	// snapshot is still the previous one, so discard the partial file.
	_ = fsys.Remove(filepath.Join(dir, snapshotTempName))

	store := NewLocalStore(tasks)
	var seq, epoch uint64
	snapPath := filepath.Join(dir, snapshotFileName)
	if _, err := fsys.Stat(snapPath); err == nil {
		snap, ds, err := readSnapshot(fsys, snapPath)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("platform: snapshot %s: %w", snapPath, err)
		}
		store = storeFromDataset(ds)
		store.resetFenceLocked(snap.Fence, snap.FenceVersion) // store not shared yet
		seq = snap.Seq
		epoch = snap.Epoch
		stats.SnapshotLoaded = true
		stats.SnapshotSeq = snap.Seq
	}

	w, scan, err := wal.Open(fsys, filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, stats, fmt.Errorf("platform: %w", err)
	}
	stats.WALRecords = len(scan.Records)
	stats.BytesTruncated = scan.Truncated()
	if scan.Corrupt != nil {
		stats.CorruptReason = scan.Corrupt.Error()
	}

	var frames [][]byte // the records after the snapshot: the first generation
	for i, payload := range scan.Records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// CRC-valid but undecodable: same treatment as a corrupt
			// tail — keep the prefix, cut the rest.
			if terr := w.TruncateTo(scan.Offsets[i]); terr != nil {
				_ = w.Close()
				return nil, nil, stats, fmt.Errorf("platform: wal repair: %w", terr)
			}
			stats.BytesTruncated += scan.Valid - scan.Offsets[i]
			stats.WALRecords = i
			stats.CorruptReason = fmt.Sprintf("record %d undecodable: %v", i, err)
			break
		}
		if rec.Seq <= seq {
			stats.RecordsSkipped++ // snapshot already covers it
			continue
		}
		if store.replayRecordLocked(rec) { // store not shared yet
			stats.RecordsReplayed++
		} else {
			stats.RecordsSkipped++
		}
		if rec.Seq != seq+1 {
			frames = frames[:0] // retained frames end at seq without a gap
		}
		frames = append(frames, payload)
		seq = rec.Seq
	}

	d := &Durability{
		dir:           dir,
		fs:            fsys,
		w:             w,
		store:         store,
		seq:           seq,
		epoch:         epoch,
		snapshotEvery: opts.SnapshotEvery,
		reg:           reg,
		log:           opts.Logger,
		frames:        frames,
	}
	d.gc = newGroupCommit(opts.CommitLinger, opts.CommitMaxBatch)
	d.gc.markDurable(seq) // everything recovered from disk is durable
	store.journal = d
	reg.Gauge("wal.size_bytes").Set(w.Size())
	reg.Gauge("wal.recovery_records_replayed").Set(int64(stats.RecordsReplayed))
	reg.Gauge("wal.recovery_bytes_truncated").Set(stats.BytesTruncated)
	d.logf("durability: recovered %s: snapshot=%v (seq %d), wal records=%d replayed=%d skipped=%d truncated=%d bytes",
		dir, stats.SnapshotLoaded, stats.SnapshotSeq, stats.WALRecords,
		stats.RecordsReplayed, stats.RecordsSkipped, stats.BytesTruncated)
	if stats.CorruptReason != "" {
		d.logf("durability: WAL tail repaired: %s", stats.CorruptReason)
	}
	return store, d, stats, nil
}

// readSnapshot decodes the snapshot envelope and its embedded dataset.
func readSnapshot(fsys wal.FS, path string) (snapshotFile, *mcs.Dataset, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return snapshotFile{}, nil, err
	}
	defer f.Close()
	var snap snapshotFile
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return snapshotFile{}, nil, fmt.Errorf("decode: %w", err)
	}
	if snap.Version != snapshotVersion {
		return snapshotFile{}, nil, fmt.Errorf("unsupported snapshot version %d", snap.Version)
	}
	ds, err := decodeSnapshotDataset(snap.Dataset)
	if err != nil {
		return snapshotFile{}, nil, err
	}
	return snap, ds, nil
}

// decodeSnapshotDataset decodes the dataset of a snapshot, read from disk
// or shipped by a primary. It drops every fingerprint checkFeatures
// refuses before it validates, as replay drops such a record: a snapshot
// written before the store checked vector lengths may mix them, which
// mcs validation refuses, and the node could then neither restart nor
// follow.
func decodeSnapshotDataset(data []byte) (*mcs.Dataset, error) {
	ds, err := mcs.DecodeJSONUnvalidated(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for i := range ds.Accounts {
		if a := &ds.Accounts[i]; checkFeatures(a.Fingerprint) != nil {
			a.Fingerprint = nil
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("mcs: decoded dataset invalid: %w", err)
	}
	return ds, nil
}

// storeFromDataset rebuilds in-memory store state from a snapshot dataset
// (see decodeSnapshotDataset), preserving account registration order.
func storeFromDataset(ds *mcs.Dataset) *LocalStore {
	s := NewLocalStore(ds.Tasks)
	for i := range ds.Accounts {
		acct := &ds.Accounts[i]
		st := s.registerAccountLocked(acct.ID) // no lock needed: store not shared yet
		for _, o := range acct.Observations {
			st.observations[o.Task] = o
		}
		if len(acct.Fingerprint) > 0 {
			st.fingerprint = append([]float64(nil), acct.Fingerprint...)
		}
	}
	return s
}

// replayRecordLocked applies one WAL record. Every record reaches memory
// through it: the client commit path and the follower apply path each
// journal and apply records under one critical section, and recovery
// replays the log through it before the store is shared. It tolerates
// records the current state already contains — a crash between the
// snapshot rename and the WAL reset leaves both holding the same
// operations — and silently drops records that fail validation rather
// than refusing to start. Returns whether state changed, and bumps the
// store's version when it did, so the dataset ETag moves with every
// change. Caller must hold mu (or own the store before it is shared).
func (s *LocalStore) replayRecordLocked(rec walRecord) (changed bool) {
	defer func() {
		if changed {
			s.version++
		}
	}()
	switch rec.Op {
	case opSubmit:
		if rec.Account == "" || rec.Task < 0 || rec.Task >= len(s.tasks) || !isFinite(rec.Value) {
			return false
		}
		st := s.accounts[rec.Account]
		if st == nil {
			st = s.registerAccountLocked(rec.Account)
		} else if _, dup := st.observations[rec.Task]; dup {
			return false
		}
		st.observations[rec.Task] = mcs.Observation{Task: rec.Task, Value: rec.Value, Time: rec.Time}
		return true
	case opFingerprint:
		if rec.Account == "" || checkFeatures(rec.Features) != nil {
			return false
		}
		st := s.accounts[rec.Account]
		if st == nil {
			st = s.registerAccountLocked(rec.Account)
		}
		st.fingerprint = append([]float64(nil), rec.Features...)
		return true
	case opFence:
		if rec.Ring == 0 {
			return false
		}
		s.applyFenceLocked(rec.Ring, rec.Accounts)
		return true
	case opUnfencePurge:
		if rec.Ring == 0 {
			return false
		}
		return s.applyPurgeLocked(rec.Ring) > 0
	}
	return false
}

// appendLocked journals mutations as one buffered WAL write. Called by
// the store with its mutex held and the records fully validated, before
// they are applied. The frames are only buffered: the caller must redeem
// the returned token with waitDurable — after releasing the store lock —
// before acknowledging. All-or-nothing at the process level: a failed
// write is repaired by the writer (no frame survives, no sequence number
// is consumed), the whole call reports the error, and the store applies
// nothing. On success every record has a sequence number and the token
// covers the last one.
func (d *Durability) appendLocked(recs []walRecord) (commitToken, error) {
	if d.closed {
		return commitToken{}, fmt.Errorf("%w: durability closed", ErrDurability)
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		recs[i].Seq = d.seq + uint64(i) + 1
		p, err := json.Marshal(recs[i])
		if err != nil {
			return commitToken{}, fmt.Errorf("%w: encode: %v", ErrDurability, err)
		}
		payloads[i] = p
	}
	sw := d.reg.Timer("wal.append_seconds").Start()
	err := d.w.AppendBatch(payloads)
	sw.Stop()
	if err != nil {
		d.reg.Counter("wal.append_errors").Inc()
		return commitToken{}, fmt.Errorf("%w: append: %v", ErrDurability, err)
	}
	d.seq += uint64(len(recs))
	d.frames = append(d.frames, payloads...)
	d.sinceSnapshot += len(recs)
	d.reg.Histogram("wal.batch_size").Observe(float64(len(recs)))
	d.reg.Counter("wal.records").Add(int64(len(recs)))
	d.reg.Gauge("wal.size_bytes").Set(d.w.Size())
	d.gc.noteAppended(d.seq)
	return commitToken{seq: d.seq, epoch: d.epoch}, nil
}

// waitDurable redeems a commit token: it returns once the token's record
// is fsynced (nil) or a sync round covering it failed (ErrDurability).
// Must be called WITHOUT the store mutex — the whole point is that the
// fsync happens outside the lock, coalescing with concurrent appenders.
func (d *Durability) waitDurable(tok commitToken) error {
	err := d.gc.wait(tok.seq, func() error {
		fw := d.reg.Timer("wal.fsync_seconds").Start()
		defer fw.Stop()
		return d.w.Sync()
	}, func(records, waiters int) {
		d.reg.Histogram("wal.group_commit_records").Observe(float64(records))
		d.reg.Gauge("wal.group_commit_waiters").Set(int64(waiters))
	})
	if err != nil {
		d.reg.Counter("wal.append_errors").Inc()
		return fmt.Errorf("%w: group fsync: %v", ErrDurability, err)
	}
	d.notifyDurable()
	return nil
}

// maybeCompactLocked snapshots and resets the WAL once SnapshotEvery
// records have accumulated. Called with the store mutex held, after the
// journaled mutation has been applied (the snapshot must contain it). A
// failed compaction is operational, not data loss — every record is
// still in the WAL — so it is logged and retried an interval later.
func (d *Durability) maybeCompactLocked() {
	if d.snapshotEvery <= 0 || d.sinceSnapshot < d.snapshotEvery {
		return
	}
	if _, err := d.snapshotLocked(); err != nil {
		d.sinceSnapshot = 0
		d.reg.Counter("wal.snapshot_errors").Inc()
		d.logf("durability: snapshot failed (WAL keeps growing): %v", err)
	}
}

// Snapshot forces a compaction: the full campaign is written to a fresh
// snapshot and the WAL is emptied.
func (d *Durability) Snapshot() error {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	if d.closed {
		return fmt.Errorf("%w: durability closed", ErrDurability)
	}
	_, err := d.snapshotLocked()
	return err
}

// snapshotLocked compacts: it writes the snapshot (temp file, fsync,
// atomic rename), then resets the WAL, whose frames become the retained
// previous generation. It returns the snapshot's dataset bytes. Crash
// windows: before the rename, the old snapshot + full WAL still recover
// everything; after the rename but before the reset, recovery skips the
// WAL records the snapshot already covers by sequence number.
func (d *Durability) snapshotLocked() ([]byte, error) { return d.compactLocked(false) }

// compactLocked is snapshotLocked, or with adopt the persisting of a
// shipped snapshot that adoptSnapshotLocked has installed. An adoption
// resets the WAL before the rename: the WAL holds the abandoned lineage,
// and recovery would replay its records past the adopted seq on top of
// the adopted state, under the new epoch. A crash between the two leaves
// the previous snapshot, an empty WAL and the old epoch, so the primary
// ships a snapshot again.
func (d *Durability) compactLocked(adopt bool) ([]byte, error) {
	sw := d.reg.Timer("wal.snapshot_seconds").Start()
	defer sw.Stop()
	env, data, err := d.encodeSnapshotLocked()
	if err != nil {
		return nil, err
	}
	d.snapshotSize = len(env)
	tmp := filepath.Join(d.dir, snapshotTempName)
	f, err := d.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(env); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if adopt {
		if err := d.w.Reset(); err != nil {
			return nil, fmt.Errorf("wal reset: %w", err)
		}
	}
	if err := d.fs.Rename(tmp, filepath.Join(d.dir, snapshotFileName)); err != nil {
		return nil, err
	}
	if !adopt {
		if err := d.w.Reset(); err != nil {
			return nil, fmt.Errorf("wal reset: %w", err)
		}
		clear(d.frames[:d.prevLen]) // the generation before last
		d.frames = d.frames[d.prevLen:]
		d.prevLen = len(d.frames)
	}
	d.sinceSnapshot = 0
	// The snapshot holds the full state through d.seq on stable storage,
	// so every record appended so far is durable — release any
	// group-commit waiters without an extra WAL fsync.
	d.gc.markDurable(d.seq)
	d.reg.Counter("wal.snapshots").Inc()
	d.reg.Gauge("wal.size_bytes").Set(0)
	d.logf("durability: snapshot written (seq %d, epoch %d)", d.seq, d.epoch)
	d.notifyDurable()
	return data, nil
}

// encodeSnapshotLocked encodes the snapshot envelope, byte-identical to
// json.Marshal of a snapshotFile, and returns it with the dataset bytes
// inside it. The envelope is written around the dataset's encoding, so
// the campaign is encoded once and never compacted again.
func (d *Durability) encodeSnapshotLocked() (env, data []byte, err error) {
	b := append(make([]byte, 0, d.snapshotSize+d.snapshotSize/8+4096), `{"version":`...)
	b = strconv.AppendInt(b, snapshotVersion, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, d.seq, 10)
	if d.epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, d.epoch, 10)
	}
	b = append(b, `,"dataset":`...)
	start := len(b)
	if b, err = d.store.datasetLocked().AppendJSON(b); err != nil {
		return nil, nil, fmt.Errorf("encode dataset: %w", err)
	}
	data = b[start:len(b):len(b)]
	fence, fenceVersion := d.store.fenceStateLocked()
	if len(fence) > 0 {
		f, _ := json.Marshal(fence) // string keys and integers always marshal
		b = append(append(b, `,"fence":`...), f...)
	}
	if fenceVersion != 0 {
		b = append(b, `,"fence_version":`...)
		b = strconv.AppendUint(b, fenceVersion, 10)
	}
	return append(b, '}'), data, nil
}

// Close writes a final snapshot and closes the WAL. The store keeps
// serving reads, but further mutations fail with ErrDurability. Safe to
// call more than once.
func (d *Durability) Close() error {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	_, snapErr := d.snapshotLocked()
	closeErr := d.w.Close()
	if snapErr != nil {
		// Not data loss: the WAL still holds everything the snapshot
		// missed, and the next open replays it.
		return fmt.Errorf("platform: close snapshot: %w", snapErr)
	}
	if closeErr != nil {
		return fmt.Errorf("platform: close wal: %w", closeErr)
	}
	return nil
}

// Abort closes the WAL without writing a final snapshot, simulating a
// hard crash (kill -9): recovery must come from the snapshot + WAL replay
// path, not from a clean shutdown. Further mutations fail with
// ErrDurability; the store keeps serving reads. Chaos tests use this to
// kill a shard under load. Safe to call more than once, and after Close
// it is a no-op.
func (d *Durability) Abort() error {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.w.Close()
}

// Dir returns the durable data directory.
func (d *Durability) Dir() string { return d.dir }

// WALSize returns the current WAL length in bytes (for tests and
// dashboards; the same value is exported as the wal.size_bytes gauge).
func (d *Durability) WALSize() int64 {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	return d.w.Size()
}

func (d *Durability) logf(format string, args ...any) {
	if d.log != nil {
		d.log.Printf(format, args...)
	}
}

// --- Replication hooks -------------------------------------------------
//
// The replication manager (repl.go) rides on the durability layer: the
// primary exports durable WAL frames by sequence range, followers append
// primary-assigned frames verbatim, and the epoch that scopes a replica
// group's history is persisted in the snapshot envelope.

// notifyDurable pokes the replication shippers after durable progress
// (a settled group commit or a snapshot). Cheap and non-blocking; safe
// with or without the store mutex held.
func (d *Durability) notifyDurable() {
	if d.repl != nil {
		d.repl.pokeShippers()
	}
}

// durableSeq returns the highest sequence number known durable. It takes
// only the group-commit mutex, a leaf lock, so it is safe with or without
// the store mutex held.
func (d *Durability) durableSeq() uint64 {
	d.gc.mu.Lock()
	defer d.gc.mu.Unlock()
	return d.gc.synced
}

// Epoch returns the node's persisted replication epoch.
func (d *Durability) Epoch() uint64 {
	d.store.mu.RLock()
	defer d.store.mu.RUnlock()
	return d.epoch
}

// persistEpoch records a new replication epoch and makes it durable by
// writing a snapshot (epochs change only on promotion/reset, so the
// full-snapshot cost is paid rarely and buys an always-consistent
// {state, seq, epoch} triple on disk).
func (d *Durability) persistEpoch(epoch uint64) error {
	d.store.mu.Lock()
	defer d.store.mu.Unlock()
	if d.closed {
		return fmt.Errorf("%w: durability closed", ErrDurability)
	}
	if d.epoch == epoch {
		return nil
	}
	d.epoch = epoch
	_, err := d.snapshotLocked()
	return err
}

// framesSince exports the durable frames in (from, from+max], CRC-stamped
// for the wire, from the two retained generations. The bool result
// reports that from precedes them (the range was compacted away more than
// one generation ago, or before this node opened or adopted a snapshot):
// the caller must ship a snapshot reset instead of frames. Only the
// payload references are copied under the store lock; the CRCs are
// computed outside it.
func (d *Durability) framesSince(from uint64, max int) ([]ReplFrame, bool, error) {
	d.store.mu.RLock()
	if d.closed {
		d.store.mu.RUnlock()
		return nil, false, fmt.Errorf("%w: durability closed", ErrDurability)
	}
	hi := min(d.durableSeq(), d.seq)
	if max > 0 && hi > from+uint64(max) {
		hi = from + uint64(max)
	}
	if from >= hi {
		d.store.mu.RUnlock()
		return nil, false, nil
	}
	first := d.seq - uint64(len(d.frames)) // frames[0] is seq first+1
	if from < first {
		d.store.mu.RUnlock()
		return nil, true, nil
	}
	payloads := append([][]byte(nil), d.frames[from-first:hi-first]...)
	d.store.mu.RUnlock()

	frames := make([]ReplFrame, len(payloads))
	for k, p := range payloads {
		frames[k] = ReplFrame{Seq: from + 1 + uint64(k), CRC: crc32.ChecksumIEEE(p), Payload: p}
	}
	return frames, false, nil
}

// adoptSnapshotLocked rewinds the durability layer onto a shipped
// snapshot's {seq, epoch} and persists the adopted state (the caller has
// already replaced the in-memory store). The group-commit marks are
// forced to the new seq — which may be LOWER than before on a diverged
// rejoiner — so the follower's durable high-water mark tracks the adopted
// history, not the abandoned one. Both retained generations are dropped:
// their frames belong to that abandoned history and must never ship.
// Caller holds the store mutex.
func (d *Durability) adoptSnapshotLocked(seq, epoch uint64) error {
	d.seq = seq
	d.epoch = epoch
	clear(d.frames)
	d.frames, d.prevLen = d.frames[:0], 0
	d.gc.mu.Lock()
	d.gc.synced = seq
	d.gc.appended = seq
	d.gc.cond.Broadcast()
	d.gc.mu.Unlock()
	_, err := d.compactLocked(true)
	return err
}

// appendReplicatedLocked journals primary-assigned frames on a follower:
// the payloads are written verbatim (keeping the follower's WAL
// byte-identical to the primary's for the shipped range) and fsynced
// before the method returns, because the follower's ack is what lets a
// semi-sync primary acknowledge its client. Caller holds the store mutex
// and has verified CRCs and seq contiguity from d.seq+1.
func (d *Durability) appendReplicatedLocked(frames []ReplFrame) error {
	if d.closed {
		return fmt.Errorf("%w: durability closed", ErrDurability)
	}
	if len(frames) == 0 {
		return nil
	}
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		payloads[i] = f.Payload
	}
	sw := d.reg.Timer("wal.append_seconds").Start()
	err := d.w.AppendBatch(payloads)
	sw.Stop()
	if err != nil {
		d.reg.Counter("wal.append_errors").Inc()
		return fmt.Errorf("%w: replicated append: %v", ErrDurability, err)
	}
	fw := d.reg.Timer("wal.fsync_seconds").Start()
	err = d.w.Sync()
	fw.Stop()
	if err != nil {
		d.reg.Counter("wal.append_errors").Inc()
		return fmt.Errorf("%w: replicated fsync: %v", ErrDurability, err)
	}
	d.seq = frames[len(frames)-1].Seq
	d.frames = append(d.frames, payloads...)
	d.sinceSnapshot += len(frames)
	d.reg.Counter("wal.records").Add(int64(len(frames)))
	d.reg.Gauge("wal.size_bytes").Set(d.w.Size())
	d.gc.markDurable(d.seq)
	return nil
}
