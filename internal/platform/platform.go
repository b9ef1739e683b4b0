// Package platform implements a cloud MCS platform as an HTTP service: it
// publishes sensing tasks, ingests timestamped submissions and sign-in
// fingerprint captures from accounts, and serves Sybil-resistant
// aggregation on demand. It is the system-shaped wrapper around the
// library: cmd/mcsplatform serves a single durable node, cmd/mcsrouter
// serves a consistent-hash sharded fleet of them (internal/platform/shard),
// cmd/mcsagent drives either, and the JSON API mirrors what the paper's
// crowd of volunteers did by hand.
package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"sybiltd/internal/core"
	"sybiltd/internal/fingerprint"
	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/obs"
	"sybiltd/internal/truth"
)

// LocalStore is the platform's in-memory state: the single-node Store
// implementation. It is safe for concurrent use.
type LocalStore struct {
	mu       sync.RWMutex
	tasks    []mcs.Task
	accounts map[string]*accountState
	order    []string // account registration order, for stable indices
	// maxAccounts bounds registrations (0 = unlimited); a public campaign
	// needs some cap or a Sybil flood can exhaust memory before any
	// aggregation-level defense runs.
	maxAccounts int
	// journal, when non-nil, makes every mutation durable: the operation
	// is appended to a write-ahead log before it is applied, and fsynced
	// before the caller sees nil. A nil journal — the default — is the
	// original purely in-memory store. Attached by OpenDurable.
	journal *Durability
	// repl, when non-nil, is the node's replication manager: writes are
	// gated on holding the primary role, reads on the follower staleness
	// bound, and acks on the configured mode. Attached by NewReplication
	// before the store is shared.
	repl *Replication

	// fenced maps account → ring version at which an online reshard moved
	// the account off this shard; mutations naming a fenced account are
	// refused with *WrongShardError. fenceVersion is the highest version
	// any fence here was installed at — mutations stamped with an older
	// ring version are refused outright, which is what stops a router that
	// missed a flip from writing through a stale topology. Both survive
	// restarts (opFence WAL records + the snapshot envelope) and ship to
	// followers like any other write.
	fenced       map[string]uint64
	fenceVersion uint64

	// incarnation and version name the exact live state in the ETag of
	// GET /v1/dataset (see datasetTagged). The incarnation is drawn at
	// random for each LocalStore, so a restart — recovery rebuilds the
	// store — never reuses a tag. The version counts every change
	// replayRecordLocked applies and every adopted snapshot: those are
	// the only writers of the campaign state. Both are guarded by mu.
	incarnation uint64
	version     uint64

	// kept holds the last td-tr grouping pass for the next Aggregate.
	kept KeptPass
}

// LocalStore implements Store and the resharding Fencer capability.
var (
	_ Store  = (*LocalStore)(nil)
	_ Fencer = (*LocalStore)(nil)
)

// SetMaxAccounts caps the number of accounts the store accepts; 0 removes
// the cap. Existing accounts are never evicted.
func (s *LocalStore) SetMaxAccounts(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxAccounts = n
}

type accountState struct {
	observations map[int]mcs.Observation
	fingerprint  []float64
}

// NewLocalStore creates an in-memory store with the given tasks.
func NewLocalStore(tasks []mcs.Task) *LocalStore {
	ts := make([]mcs.Task, len(tasks))
	copy(ts, tasks)
	for i := range ts {
		ts[i].ID = i
		if ts[i].Name == "" {
			ts[i].Name = fmt.Sprintf("T%d", i+1)
		}
	}
	return &LocalStore{tasks: ts, accounts: make(map[string]*accountState), incarnation: rand.Uint64()}
}

// Errors returned by store and API operations. Each maps to a stable wire
// code (see codeForError); Client decodes the code back into the same
// sentinel so errors.Is works on both sides of the HTTP boundary.
var (
	ErrTooManyAccounts    = errors.New("platform: account limit reached")
	ErrUnknownTask        = errors.New("platform: unknown task")
	ErrDuplicateReport    = errors.New("platform: account already reported on this task")
	ErrEmptyAccount       = errors.New("platform: empty account ID")
	ErrBadFingerprint     = errors.New("platform: malformed fingerprint capture")
	ErrUnknownAggregation = errors.New("platform: unknown aggregation method")
	ErrMalformedRequest   = errors.New("platform: malformed request")
	// ErrDurability means the write-ahead log could not persist the
	// operation; the mutation was NOT applied (the store never
	// acknowledges what it cannot make durable). Maps to HTTP 503, which
	// the client treats as retryable.
	ErrDurability = errors.New("platform: durability failure")
	// ErrRateLimited means the account exceeded its token-bucket budget.
	// Maps to HTTP 429 with a Retry-After header; the client honors the
	// advertised wait before retrying.
	ErrRateLimited = errors.New("platform: rate limited")
	// ErrOverloaded means the platform shed the request — the admission
	// gate was saturated, the wait queue full, or the request deadline
	// expired before the work finished. Nothing was applied. Maps to
	// HTTP 503 with a Retry-After header.
	ErrOverloaded = errors.New("platform: overloaded")
	// ErrCircuitOpen is returned client-side when the circuit breaker is
	// open: the platform has failed repeatedly and the client refuses to
	// send until the cooldown elapses and a probe succeeds.
	ErrCircuitOpen = errors.New("platform: circuit breaker open")
	// ErrShardUnavailable means a sharded store could not complete the
	// operation because every covering shard was unreachable. Partial
	// reads degrade instead (ResponseMeta.Degraded); this error is the
	// nothing-answered case. Maps to HTTP 503.
	ErrShardUnavailable = errors.New("platform: shard unavailable")
	// ErrNotPrimary means the write landed on a replica-group follower.
	// Followers never take client writes — the caller must go through the
	// group's primary (the router refreshes its view and retries). Maps to
	// HTTP 503.
	ErrNotPrimary = errors.New("platform: not the primary replica")
	// ErrReplicaLag means a replication guarantee could not be met: a
	// semi-sync write timed out waiting for a follower ack (the record IS
	// durable locally, so a retry may see ErrDuplicateReport — the usual
	// ambiguous-ack contract), or a read hit a follower trailing the
	// primary beyond its staleness bound. Maps to HTTP 503.
	ErrReplicaLag = errors.New("platform: replica lag")
	// ErrUnimplemented means the endpoint exists in the API surface but
	// this node does not serve it (e.g. truth-watch streams on a replica
	// follower). Maps to HTTP 501; the client does NOT retry — the answer
	// will not change.
	ErrUnimplemented = errors.New("platform: unimplemented")
	// ErrWrongShard means the account addressed by a mutation no longer
	// lives on this shard: an online reshard moved it to another replica
	// group and this node was fenced. The write was NOT applied. Maps to
	// HTTP 503 with the current ring version in the body; the router
	// refreshes its topology and re-routes instead of retrying here (a
	// retry against a fenced shard can never succeed). Returned as a
	// *WrongShardError so callers can read the version.
	ErrWrongShard = errors.New("platform: wrong shard for account")
)

// WrongShardError is the typed form of ErrWrongShard: the refusal carries
// the ring version at which this shard was fenced, so a stale router
// learns how far behind its topology is. errors.Is(err, ErrWrongShard)
// matches it.
type WrongShardError struct {
	// RingVersion is the ring version the fence was installed at — the
	// minimum version a router must hold to route correctly past it.
	RingVersion uint64
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("platform: wrong shard for account (ring version %d)", e.RingVersion)
}

// Is makes errors.Is(err, ErrWrongShard) succeed on the typed error.
func (e *WrongShardError) Is(target error) bool { return target == ErrWrongShard }

// Fencer is the capability interface for online resharding: a store that
// can durably refuse writes for accounts the ring has moved elsewhere,
// and drop their data once the migration that moved them has durably
// completed. LocalStore implements it; RemoteStore forwards it over the
// wire. The sharded composite store does NOT implement it — fences are
// installed on individual donor shards by the migration coordinator.
type Fencer interface {
	// Fence marks accounts as moved away as of ringVersion: every later
	// mutation naming one of them — and every mutation stamped with a ring
	// version below ringVersion — is refused with a *WrongShardError. The
	// fence is journaled (and replicated) like any write, so it survives
	// crashes and follower promotion.
	Fence(ctx context.Context, ringVersion uint64, accounts []string) error
	// FenceVersion returns the highest ring version this store has been
	// fenced at (0 = never fenced).
	FenceVersion() uint64
	// PurgeFenced is the post-migration GC: it drops the stored data of
	// every account fenced at or below ringVersion and returns how many
	// accounts were purged. Without it, a donor carries every moved
	// account's observations in memory — and in every snapshot — forever.
	// The purge keeps the fence map and the fence-version watermark:
	// stale writers must still get wrong_shard, because dropping the
	// fence would let a pre-flip-topology router silently re-create a
	// moved account here. The purge is journaled and replicated like any
	// write. Idempotent: a second purge at the same version finds nothing
	// to drop.
	PurgeFenced(ctx context.Context, ringVersion uint64) (int, error)
}

// isFinite reports whether v is a usable measurement. NaN and ±Inf are
// rejected at the store boundary: a single non-finite observation
// poisons every weighted mean downstream, which for a truth-discovery
// platform is a one-report data-poisoning attack.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Tasks returns a copy of the published tasks.
func (s *LocalStore) Tasks(ctx context.Context) ([]mcs.Task, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]mcs.Task, len(s.tasks))
	copy(out, s.tasks)
	return out, nil
}

// roomForAccountLocked fails when registering one more account, on top
// of pending ones not yet applied, would exceed the cap. Caller must hold
// mu.
func (s *LocalStore) roomForAccountLocked(pending int) error {
	if s.maxAccounts > 0 && len(s.accounts)+pending >= s.maxAccounts {
		return fmt.Errorf("%w (%d)", ErrTooManyAccounts, s.maxAccounts)
	}
	return nil
}

// registerAccountLocked creates the account state. Caller must hold mu;
// the cap is checked by the client path's validation (roomForAccountLocked),
// not here, so recovery never refuses what the log holds.
func (s *LocalStore) registerAccountLocked(id string) *accountState {
	st := &accountState{observations: make(map[int]mcs.Observation)}
	s.accounts[id] = st
	s.order = append(s.order, id)
	return st
}

// Submit records one observation for an account. Each account may report
// on each task at most once (§III-C). It is a one-item SubmitBatch: the
// same validation, the same journal and the same ack.
func (s *LocalStore) Submit(ctx context.Context, account string, task int, value float64, at time.Time) error {
	return s.SubmitBatch(ctx, []BatchSubmission{{Account: account, Task: task, Value: value, At: at}})[0]
}

// writeAllowed gates client mutations by replica role: a follower never
// takes writes directly (shipped frames arrive through the replication
// manager, not this path).
func (s *LocalStore) writeAllowed() error {
	if s.repl == nil {
		return nil
	}
	return s.repl.allowWrite()
}

// readAllowed gates reads by follower staleness (no-op unless a
// MaxReadLag bound is configured).
func (s *LocalStore) readAllowed() error {
	if s.repl == nil {
		return nil
	}
	return s.repl.allowRead()
}

// commit is the one write path every client mutation takes. A follower
// or an expired deadline is refused first. Then, under the store lock,
// plan validates the mutation against the current state and returns the
// WAL records that carry it; they are journaled in one append and applied
// through replayRecordLocked, the function recovery and followers replay
// the same records with, so the live state is always what the log says.
// Outside the lock the caller waits for the group fsync covering the
// records and, on a semi-sync primary, for a follower to hold them. A plan
// error, or a plan with no records, ends the commit with nothing
// journaled.
//
// The deadline is checked again under the lock, immediately before the
// append. Once journaling starts the operation always completes: a
// journaled-but-unapplied record would be the torn state durability
// exists to prevent.
func (s *LocalStore) commit(ctx context.Context, plan func() ([]walRecord, error)) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	tok, err := s.commitLocked(ctx, plan)
	if err != nil || tok.seq == 0 {
		return err
	}
	if err := s.journal.waitDurable(tok); err != nil {
		return err
	}
	if s.repl != nil {
		// Semi-sync: the ack waits for a follower to hold the records too.
		return s.repl.settle(ctx, tok)
	}
	return nil
}

// opCounters names the counter each kind of client mutation adds its
// records to. A purge is counted by the accounts it dropped instead.
var opCounters = map[string]string{
	opSubmit:      "platform.submissions",
	opFingerprint: "platform.fingerprints",
	opFence:       "platform.fences",
}

// commitLocked is the critical section of commit. The returned token is
// zero when nothing was journaled (an empty plan, or no journal at all).
func (s *LocalStore) commitLocked(ctx context.Context, plan func() ([]walRecord, error)) (commitToken, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := plan()
	if err != nil || len(recs) == 0 {
		return commitToken{}, err
	}
	if err := ctx.Err(); err != nil {
		return commitToken{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	var tok commitToken
	if s.journal != nil {
		if tok, err = s.journal.appendLocked(recs); err != nil {
			return commitToken{}, err
		}
	}
	accounts := len(s.accounts)
	for _, rec := range recs {
		s.replayRecordLocked(rec)
	}
	// Every plan journals one kind of operation.
	if op := recs[0].Op; op == opUnfencePurge {
		obs.Default().Counter("platform.purged_accounts").Add(int64(accounts - len(s.accounts)))
	} else {
		obs.Default().Counter(opCounters[op]).Add(int64(len(recs)))
	}
	if s.journal != nil {
		s.journal.maybeCompactLocked()
	}
	return tok, nil
}

// BatchSubmission is one item of a bulk submit (Store.SubmitBatch).
type BatchSubmission struct {
	Account string
	Task    int
	Value   float64
	At      time.Time
}

// SubmitBatch records many observations in one WAL write + one fsync.
// Items are validated independently — a duplicate or malformed item gets
// its own error and does not poison the rest of the batch — and the
// per-item errors come back positionally (nil = acknowledged durable).
// Later items see earlier valid ones as already applied: an in-batch
// duplicate is a duplicate, and the account cap counts accounts the batch
// itself registers. A refusal of the whole commit (follower, deadline,
// journal or replication failure) answers every item that has no error
// of its own.
func (s *LocalStore) SubmitBatch(ctx context.Context, items []BatchSubmission) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	err := s.commit(ctx, func() ([]walRecord, error) {
		return s.validateBatchLocked(items, errs), nil
	})
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
	return errs
}

// validateBatchLocked checks each item against the store and the items
// before it, records per-item errors in errs, and returns the submit
// records of the valid items. Caller must hold mu.
func (s *LocalStore) validateBatchLocked(items []BatchSubmission, errs []error) []walRecord {
	type reportKey struct {
		account string
		task    int
	}
	inBatch := make(map[reportKey]bool)
	newAccounts := make(map[string]bool)
	recs := make([]walRecord, 0, len(items))
	for i, it := range items {
		if it.Account == "" {
			errs[i] = ErrEmptyAccount
			continue
		}
		if !isFinite(it.Value) {
			errs[i] = fmt.Errorf("%w: non-finite observation value %v", ErrMalformedRequest, it.Value)
			continue
		}
		if it.Task < 0 || it.Task >= len(s.tasks) {
			errs[i] = fmt.Errorf("%w: %d", ErrUnknownTask, it.Task)
			continue
		}
		if _, moved := s.fenced[it.Account]; moved {
			errs[i] = &WrongShardError{RingVersion: s.fenceVersion}
			continue
		}
		st := s.accounts[it.Account]
		dup := inBatch[reportKey{it.Account, it.Task}]
		if !dup && st != nil {
			_, dup = st.observations[it.Task]
		}
		if dup {
			errs[i] = fmt.Errorf("%w: account %q task %d", ErrDuplicateReport, it.Account, it.Task)
			continue
		}
		if st == nil && !newAccounts[it.Account] {
			if err := s.roomForAccountLocked(len(newAccounts)); err != nil {
				errs[i] = err
				continue
			}
			newAccounts[it.Account] = true
		}
		inBatch[reportKey{it.Account, it.Task}] = true
		recs = append(recs, walRecord{Op: opSubmit, Account: it.Account, Task: it.Task, Value: it.Value, Time: it.At})
	}
	return recs
}

// RecordFingerprint extracts Table II features from a raw sign-in capture
// and stores them for the account. All six streams must be non-empty and
// of equal length. The journal stores the extracted feature vector, not
// the raw capture: extraction is deterministic and the features are the
// only thing the store keeps, so logging them keeps the WAL small.
func (s *LocalStore) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	if account == "" {
		return ErrEmptyAccount
	}
	n := rec.Len()
	if n == 0 || rec.SampleRate <= 0 ||
		len(rec.AccelY) != n || len(rec.AccelZ) != n ||
		len(rec.GyroX) != n || len(rec.GyroY) != n || len(rec.GyroZ) != n {
		return ErrBadFingerprint
	}
	vec := fingerprint.Extract(rec)
	for _, f := range vec {
		if !isFinite(f) {
			return fmt.Errorf("%w: capture yields non-finite features", ErrBadFingerprint)
		}
	}
	return s.setFingerprint(ctx, account, vec)
}

// RecordFingerprintFeatures stores an already-extracted fingerprint
// feature vector for the account (the replay path: archived campaigns
// hold features, not raw captures). The vector must have
// fingerprint.VectorLen finite features, the length Extract returns: one
// vector of another length would make the dataset, and every snapshot of
// it, fail mcs validation.
func (s *LocalStore) RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error {
	if account == "" {
		return ErrEmptyAccount
	}
	if err := checkFeatures(features); err != nil {
		return err
	}
	return s.setFingerprint(ctx, account, features)
}

// checkFeatures refuses a feature vector that is not fingerprint.VectorLen
// finite values. The client path, WAL replay and snapshot loads share it,
// so the store never holds a vector of another length.
func checkFeatures(features []float64) error {
	if len(features) != fingerprint.VectorLen {
		return fmt.Errorf("%w: %d features, want %d", ErrBadFingerprint, len(features), fingerprint.VectorLen)
	}
	for _, f := range features {
		if !isFinite(f) {
			return fmt.Errorf("%w: non-finite feature %v", ErrBadFingerprint, f)
		}
	}
	return nil
}

// setFingerprint commits a validated feature vector (the apply copies it).
func (s *LocalStore) setFingerprint(ctx context.Context, account string, vec []float64) error {
	return s.commit(ctx, func() ([]walRecord, error) {
		if _, moved := s.fenced[account]; moved {
			return nil, &WrongShardError{RingVersion: s.fenceVersion}
		}
		if s.accounts[account] == nil {
			if err := s.roomForAccountLocked(0); err != nil {
				return nil, err
			}
		}
		return []walRecord{{Op: opFingerprint, Account: account, Features: vec}}, nil
	})
}

// Fence durably marks accounts as moved off this shard as of ringVersion
// (see Fencer). Fencing is a write: it is journaled and fsynced before it
// is acknowledged, ships to followers through the regular WAL stream, and
// on a semi-sync primary the ack waits for a follower to hold it — so a
// promoted follower is exactly as fenced as the primary it replaces.
// Fencing an already-fenced account raises its version; fencing with an
// older version than an existing fence is a no-op for that account but
// still records the max version seen. Idempotent by construction, so the
// migration coordinator can re-issue it on every resume.
func (s *LocalStore) Fence(ctx context.Context, ringVersion uint64, accounts []string) error {
	if ringVersion == 0 {
		return fmt.Errorf("%w: fence needs a ring version", ErrMalformedRequest)
	}
	return s.commit(ctx, func() ([]walRecord, error) {
		return []walRecord{{Op: opFence, Ring: ringVersion, Accounts: accounts}}, nil
	})
}

// applyFenceLocked installs the fence in memory. Reached through
// replayRecordLocked by the client path, WAL recovery and the follower
// apply path alike; caller must hold mu.
func (s *LocalStore) applyFenceLocked(ringVersion uint64, accounts []string) {
	if s.fenced == nil {
		s.fenced = make(map[string]uint64)
	}
	for _, a := range accounts {
		if a == "" {
			continue
		}
		if ringVersion > s.fenced[a] {
			s.fenced[a] = ringVersion
		}
	}
	if ringVersion > s.fenceVersion {
		s.fenceVersion = ringVersion
	}
}

// FenceVersion returns the highest ring version this store was fenced at
// (0 = never fenced). The HTTP layer uses it to refuse mutations stamped
// with a stale ring version.
func (s *LocalStore) FenceVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fenceVersion
}

// fenceStateLocked exports the fence map for the snapshot envelope (the
// WAL is reset on compaction, so the fence must ride in the snapshot the
// same way the replication epoch does). Caller must hold mu.
func (s *LocalStore) fenceStateLocked() (map[string]uint64, uint64) {
	if len(s.fenced) == 0 && s.fenceVersion == 0 {
		return nil, 0
	}
	out := make(map[string]uint64, len(s.fenced))
	for a, v := range s.fenced {
		out[a] = v
	}
	return out, s.fenceVersion
}

// resetFenceLocked replaces the fence state wholesale (snapshot adoption
// on a follower). Caller must hold mu.
func (s *LocalStore) resetFenceLocked(fenced map[string]uint64, version uint64) {
	s.fenced = nil
	s.fenceVersion = 0
	if len(fenced) > 0 || version > 0 {
		s.fenced = make(map[string]uint64, len(fenced))
		for a, v := range fenced {
			s.fenced[a] = v
		}
		s.fenceVersion = version
	}
}

// PurgeFenced durably drops the data of every account fenced at or below
// ringVersion (see Fencer) — the GC the migration coordinator runs after
// a reshard completes. Like Fence, the purge is a write: journaled and
// fsynced before it is acknowledged, shipped to followers through the
// regular WAL stream, and settled under the configured ack mode, so a
// promoted follower has purged exactly what its dead primary had. The
// fence map and fence-version watermark survive: stale writers still get
// wrong_shard, only the moved data is released. Nothing is journaled when
// there is nothing to purge, so re-issuing it is free.
func (s *LocalStore) PurgeFenced(ctx context.Context, ringVersion uint64) (int, error) {
	if ringVersion == 0 {
		return 0, fmt.Errorf("%w: purge needs a ring version", ErrMalformedRequest)
	}
	n := 0
	err := s.commit(ctx, func() ([]walRecord, error) {
		// Count first: an empty purge must not burn a WAL record (the
		// coordinator re-issues purges freely on resume).
		for a, v := range s.fenced {
			if v <= ringVersion && s.accounts[a] != nil {
				n++
			}
		}
		if n == 0 {
			return nil, nil
		}
		return []walRecord{{Op: opUnfencePurge, Ring: ringVersion}}, nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// applyPurgeLocked drops fenced accounts' data in memory. Shared by the
// client path, WAL replay, and the follower apply path; caller must hold
// mu. Returns how many accounts were dropped.
func (s *LocalStore) applyPurgeLocked(ringVersion uint64) int {
	n := 0
	for a, v := range s.fenced {
		if v > ringVersion {
			continue
		}
		if s.accounts[a] != nil {
			delete(s.accounts, a)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if s.accounts[id] != nil {
			kept = append(kept, id)
		}
	}
	s.order = kept
	return n
}

// Dataset snapshots the store as an mcs.Dataset (accounts in registration
// order). It fails only on an expired context or a follower beyond its
// read-lag bound.
func (s *LocalStore) Dataset(ctx context.Context) (*mcs.Dataset, error) {
	ds, _, err := s.datasetTagged(ctx, "")
	return ds, err
}

// datasetTagged is Dataset with the strong ETag that names the snapshot's
// state, "<incarnation>-<version>". When ifNoneMatch (an If-None-Match
// field value) still matches the live state it returns a nil dataset and
// copies nothing: the caller's copy is current. The follower read gate
// runs first, so a lagging follower refuses a conditional read too.
func (s *LocalStore) datasetTagged(ctx context.Context, ifNoneMatch string) (*mcs.Dataset, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	if err := s.readAllowed(); err != nil {
		return nil, "", err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	tag := fmt.Sprintf(`"%x-%d"`, s.incarnation, s.version)
	if etagListed(ifNoneMatch, tag) {
		return nil, tag, nil
	}
	return s.datasetLocked(), tag, nil
}

// etagListed reports whether an If-None-Match field value names tag: "*",
// or a listed entity tag equal to it under the weak comparison RFC 9110
// §13.1.2 prescribes (a W/ prefix is ignored).
func etagListed(field, tag string) bool {
	for _, t := range strings.Split(field, ",") {
		if t = strings.TrimPrefix(strings.TrimSpace(t), "W/"); t == "*" || t == tag {
			return true
		}
	}
	return false
}

// datasetLocked is Dataset for callers that already hold mu (the
// durability snapshot runs under the write lock).
func (s *LocalStore) datasetLocked() *mcs.Dataset {
	ds := &mcs.Dataset{Tasks: make([]mcs.Task, len(s.tasks)), Accounts: make([]mcs.Account, 0, len(s.order))}
	copy(ds.Tasks, s.tasks)
	n := 0
	for _, st := range s.accounts {
		n += len(st.observations)
	}
	all := make([]mcs.Observation, 0, n) // one allocation; each account gets a capped window
	for _, id := range s.order {
		st := s.accounts[id]
		start := len(all)
		for _, o := range st.observations {
			all = append(all, o)
		}
		acct := mcs.Account{ID: id, Observations: all[start:len(all):len(all)]}
		mcs.SortObservations(acct.Observations) // stable order inside the account
		if len(st.fingerprint) > 0 {
			acct.Fingerprint = append([]float64(nil), st.fingerprint...)
		}
		ds.Accounts = append(ds.Accounts, acct)
	}
	return ds
}

// NumAccounts returns the number of registered accounts.
func (s *LocalStore) NumAccounts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.accounts)
}

// Stats summarizes the store.
func (s *LocalStore) Stats(ctx context.Context) (StatsResponse, error) {
	if err := ctx.Err(); err != nil {
		return StatsResponse{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	if err := s.readAllowed(); err != nil {
		return StatsResponse{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StatsResponse{Tasks: len(s.tasks), Accounts: len(s.accounts)}, nil
}

// Aggregate runs the named aggregation method over the current dataset
// and returns the result plus the per-task weighted standard errors (see
// truth.Uncertainty). The context is propagated into the grouping worker
// pools and the truth loop; see AggregateDataset for the degradation
// policy. td-tr starts from the store's kept grouping pass (see
// KeptPass).
func (s *LocalStore) Aggregate(ctx context.Context, method string) (truth.Result, []float64, error) {
	ds, err := s.Dataset(ctx)
	if err != nil {
		return truth.Result{}, nil, err
	}
	return s.kept.Aggregate(ctx, method, ds)
}

// AggregateDataset runs the named aggregation method over ds under the
// platform's serving policy: for the Sybil-resistant framework methods
// graceful degradation is switched on, so a grouping pass cancelled by
// the deadline (or failing outright) yields per-account estimates flagged
// Result.Degraded instead of an error (see core.Framework.RunContext).
// Every Store implementation aggregates through this one path, from the
// pass it keeps (KeptPass.Aggregate) — the single-node and the sharded
// merged-dataset paths are bit-identical on identical input, whatever
// pass they kept.
func AggregateDataset(ctx context.Context, method string, ds *mcs.Dataset) (truth.Result, []float64, error) {
	return (*KeptPass)(nil).Aggregate(ctx, method, ds)
}

// KeptPass keeps the last AG-TR grouping pass (grouping.Pass) of a store's
// td-tr aggregates, so that the next one over a campaign whose accounts
// have not changed reuses its partition and tests no pair. Each store owns
// one; the zero value is ready to use, and a nil *KeptPass keeps nothing.
// Concurrent aggregates each start from the latest pass and publish their
// own: a pass is exact whatever pass it starts from, so it does not matter
// which one wins. A grouping pass that fails or is cancelled, so that the
// answer degrades, publishes nothing. Memory: one grouping.Pass,
// O(reports + accounts).
type KeptPass struct {
	mu   sync.Mutex
	pass *grouping.Pass
}

// Aggregate is AggregateDataset, with td-tr's grouping starting from, and
// keeping, the last pass.
func (k *KeptPass) Aggregate(ctx context.Context, method string, ds *mcs.Dataset) (truth.Result, []float64, error) {
	alg, err := AlgorithmByName(method)
	if err != nil {
		return truth.Result{}, nil, err
	}
	if fw, ok := alg.(core.Framework); ok {
		// Serving policy: a degraded answer beats a failed campaign.
		fw.Config.DegradeOnGroupingFailure = true
		if tr, ok := fw.Grouper.(grouping.AGTR); ok && k != nil {
			fw.Grouper = keptGrouper{AGTR: tr, kept: k}
		}
		alg = fw
	}
	defer obs.Default().Timer("platform.aggregate_seconds").Start().Stop()
	res, err := truth.RunWithContext(ctx, alg, ds)
	if err != nil {
		return truth.Result{}, nil, fmt.Errorf("platform: aggregate %s: %w", method, err)
	}
	unc, err := truth.Uncertainty(ds, res)
	if err != nil {
		return truth.Result{}, nil, fmt.Errorf("platform: uncertainty %s: %w", method, err)
	}
	return res, unc, nil
}

// keptGrouper runs AG-TR from the pass kept holds, and keeps the pass it
// makes when the grouping succeeds.
type keptGrouper struct {
	grouping.AGTR
	kept *KeptPass
}

func (g keptGrouper) Group(ds *mcs.Dataset) (grouping.Grouping, error) {
	return g.GroupContext(context.Background(), ds)
}

func (g keptGrouper) GroupContext(ctx context.Context, ds *mcs.Dataset) (grouping.Grouping, error) {
	g.kept.mu.Lock()
	last := g.kept.pass
	g.kept.mu.Unlock()
	grp, pass, err := g.GroupPass(ctx, ds, last)
	if err != nil {
		return grp, err
	}
	g.kept.mu.Lock()
	g.kept.pass = pass
	g.kept.mu.Unlock()
	return grp, nil
}

// AlgorithmByName maps API method names to algorithms.
func AlgorithmByName(method string) (truth.Algorithm, error) {
	switch method {
	case "crh":
		return truth.CRH{}, nil
	case "mean":
		return truth.Mean{}, nil
	case "median":
		return truth.Median{}, nil
	case "td-fp":
		return core.Framework{Grouper: grouping.AGFP{}}, nil
	case "td-ts":
		return core.Framework{Grouper: grouping.AGTS{}}, nil
	case "td-tr":
		return core.Framework{Grouper: grouping.AGTR{Phi: 0.3}}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownAggregation, method)
	}
}
