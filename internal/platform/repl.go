// Per-shard replication: a replica group is one primary plus N followers
// sharing a history of WAL frames. The primary journals every mutation
// through the Durability layer and ships the committed (durable) frames
// to each follower over POST /v1/repl/frames — sequence-numbered,
// CRC-carrying, idempotent on replay. Followers journal shipped frames
// verbatim (their WAL is byte-identical to the primary's over the shipped
// range) and apply them through the same replay path recovery uses, so a
// promoted follower is indistinguishable from a restarted primary.
//
// Divergence is scoped by an epoch, persisted in the snapshot envelope:
//
//   - A follower accepts frames only at its own epoch. Equal epochs imply
//     the shipped frames extend the follower's prefix (there is exactly
//     one writer per epoch), so a contiguity + CRC check is sufficient.
//   - An epoch is only ever adopted via a full snapshot ship. A primary
//     whose follower answers from a lower epoch resets it with snapshot +
//     tail instead of frames; a demoted primary keeps its old epoch, so a
//     tail it wrote after the group moved on can never be mistaken for a
//     prefix — its first contact with the new primary forces the reset.
//   - Promotion bumps the epoch (the router picks max(known)+1), and the
//     new epoch is persisted before the first write is accepted.
//
// Ack modes: async (default) acknowledges once locally durable and ships
// in the background; semi-sync withholds the ack until at least one
// follower has the record durable, so an acknowledged write survives the
// loss of any single replica.
package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"sync"
	"time"

	"sybiltd/internal/obs"
)

// Replica roles.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// AckMode selects when a replicated primary acknowledges a write.
type AckMode string

const (
	// AckAsync acknowledges once the record is durable on the primary;
	// followers catch up in the background. A primary lost before shipping
	// can lose acknowledged records — the classic async-replication gap.
	AckAsync AckMode = "async"
	// AckSemiSync withholds the ack until at least one follower reports
	// the record durable, so every acknowledged write exists on ≥2
	// replicas. Slower per write; survives any single-node loss.
	AckSemiSync AckMode = "semisync"
)

// ReplFrame is one WAL frame on the wire: the exact payload bytes the
// primary journaled, with its sequence number and CRC32-IEEE checksum
// (the same checksum the WAL file format carries).
type ReplFrame struct {
	Seq     uint64 `json:"seq"`
	CRC     uint32 `json:"crc"`
	Payload []byte `json:"payload"`
}

// ReplShipRequest carries frames (or a full snapshot) from primary to
// follower. Exactly one of Frames / Snapshot is meaningful per request;
// an empty request is a cursor probe. PrimarySeq is the primary's durable
// high-water mark, letting the follower measure its own lag.
type ReplShipRequest struct {
	Epoch       uint64      `json:"epoch"`
	PrimarySeq  uint64      `json:"primary_seq"`
	Frames      []ReplFrame `json:"frames,omitempty"`
	Snapshot    []byte      `json:"snapshot,omitempty"` // mcs JSON dataset
	SnapshotSeq uint64      `json:"snapshot_seq,omitempty"`
	// Fence and FenceVersion accompany a snapshot: the primary's resharding
	// fence state (see Fencer), which rides outside the dataset the same
	// way it rides outside the WAL in the snapshot envelope. A follower
	// adopting a snapshot adopts the fence with it — otherwise a snapshot
	// reset would silently unfence a replica and it could accept writes for
	// accounts the ring moved away.
	Fence        map[string]uint64 `json:"fence,omitempty"`
	FenceVersion uint64            `json:"fence_version,omitempty"`
}

// ReplShipResponse reports the follower's cursor after a ship. AppliedSeq
// is the follower's durable high-water mark — the primary resumes from it
// on gap or after reconnect, which is what makes replay idempotent.
// NeedSnapshot asks the primary to ship a full snapshot instead of frames
// (the follower's epoch is behind, or its cursor precedes the primary's
// compacted WAL).
type ReplShipResponse struct {
	AppliedSeq   uint64 `json:"applied_seq"`
	Epoch        uint64 `json:"epoch"`
	Durable      bool   `json:"durable"`
	NeedSnapshot bool   `json:"need_snapshot,omitempty"`
}

// ReplFollowerStatus is one follower's shipping state as the primary
// sees it.
type ReplFollowerStatus struct {
	Endpoint string `json:"endpoint"`
	AckedSeq uint64 `json:"acked_seq"`
	Lag      uint64 `json:"lag"`
}

// ReplStatusResponse is the GET /v1/repl/status body: the node's role,
// epoch, and durable sequence number, plus (follower) its lag behind the
// last-seen primary high-water mark or (primary) per-follower cursors.
type ReplStatusResponse struct {
	Role       string               `json:"role"`
	Epoch      uint64               `json:"epoch"`
	DurableSeq uint64               `json:"durable_seq"`
	Lag        uint64               `json:"lag"`
	AckMode    AckMode              `json:"ack_mode"`
	Followers  []ReplFollowerStatus `json:"followers,omitempty"`
}

// ReplRoleRequest flips a node's role (POST /v1/repl/role). Promotion
// (Role == primary) must carry an epoch strictly above the node's own and
// the follower endpoints the new primary ships to. Demotion (Role ==
// follower) carries the epoch of the authority demoting the node — it is
// refused when stale — but the node keeps its own epoch, forcing a
// snapshot handshake with the new primary (see the package comment).
type ReplRoleRequest struct {
	Role      string   `json:"role"`
	Epoch     uint64   `json:"epoch"`
	Primary   string   `json:"primary,omitempty"`
	Followers []string `json:"followers,omitempty"`
}

// ReplicationOptions configures NewReplication.
type ReplicationOptions struct {
	// Mode is the ack mode (default AckAsync).
	Mode AckMode
	// Followers are the follower base URLs this node ships to while
	// primary.
	Followers []string
	// FollowerOf, when non-empty, starts the node as a follower of the
	// given primary endpoint (informational; the primary pushes).
	FollowerOf string
	// MaxShipBatch bounds frames per ship request (default 512).
	MaxShipBatch int
	// ShipInterval is the background ship/retry cadence (default 100ms);
	// durable writes also poke the shippers immediately.
	ShipInterval time.Duration
	// SemiSyncTimeout bounds how long a semi-sync write waits for a
	// follower ack before failing with ErrReplicaLag (default 5s). The
	// record is locally durable either way; the error tells the client
	// the redundancy guarantee was not met in time (a retry may then see
	// ErrDuplicateReport — the usual ambiguous-ack contract).
	SemiSyncTimeout time.Duration
	// MaxReadLag, when > 0, makes a follower refuse reads with
	// ErrReplicaLag while it trails the primary's high-water mark by more
	// than this many records. 0 serves reads at any staleness.
	MaxReadLag uint64
	// NewClient builds the client used to reach a follower (default
	// NewClient(endpoint, WithRetries(0))). Tests inject fault-wrapped
	// clients here.
	NewClient func(endpoint string) *Client
	// Registry receives replication metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger, when non-nil, receives replication lifecycle logs.
	Logger *log.Logger
}

// shipper drives one follower: a goroutine owning the connection, a
// cursor (the follower's durable seq), and a poke channel the durability
// layer rings on every local commit.
type shipper struct {
	idx      int
	endpoint string
	client   *Client
	poke     chan struct{}
	stop     chan struct{}
	done     chan struct{}

	// mu guards the cursor state (read by Status / semi-sync bookkeeping
	// while the shipper goroutine writes it).
	mu           sync.Mutex
	cursor       uint64
	handshook    bool
	needSnapshot bool
}

func (s *shipper) acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Replication manages one node's side of a replica group. A node is
// either the group's primary (accepts writes, ships frames) or a
// follower (accepts shipped frames, rejects client writes with
// ErrNotPrimary, serves reads).
//
// Lock ordering: mu (role/view state) and shipMu (shipper set + ack
// bookkeeping) are leaves — neither is ever held while taking the store
// mutex. The durability layer calls pokeShippers with the store mutex
// held, so shipMu must stay cheap and never block on the store.
type Replication struct {
	store *LocalStore
	d     *Durability
	reg   *obs.Registry
	log   *log.Logger

	mode            AckMode
	maxBatch        int
	shipInterval    time.Duration
	semiSyncTimeout time.Duration
	maxReadLag      uint64
	newClient       func(string) *Client

	mu             sync.RWMutex
	role           string
	roleCh         chan struct{} // closed and replaced when role changes
	primary        string        // last-known primary endpoint (follower view)
	lastPrimarySeq uint64        // primary high-water mark from the last ship
	closed         bool

	shipMu   sync.Mutex
	shippers []*shipper
	ackSeq   uint64        // highest seq durable on ≥1 follower
	ackCh    chan struct{} // closed and replaced when ackSeq advances
}

// NewReplication attaches a replication manager to a durable store. It
// must run before the store is shared (it wires itself into the store and
// durability layer without locks). Close releases the shippers.
func NewReplication(store *LocalStore, d *Durability, opts ReplicationOptions) *Replication {
	if store == nil || d == nil {
		panic("platform: NewReplication needs a durable store")
	}
	r := &Replication{
		store:           store,
		d:               d,
		reg:             opts.Registry,
		log:             opts.Logger,
		mode:            opts.Mode,
		maxBatch:        opts.MaxShipBatch,
		shipInterval:    opts.ShipInterval,
		semiSyncTimeout: opts.SemiSyncTimeout,
		maxReadLag:      opts.MaxReadLag,
		newClient:       opts.NewClient,
		role:            RolePrimary,
		roleCh:          make(chan struct{}),
		primary:         opts.FollowerOf,
		ackCh:           make(chan struct{}),
	}
	if r.reg == nil {
		r.reg = obs.Default()
	}
	if r.mode == "" {
		r.mode = AckAsync
	}
	if r.maxBatch <= 0 {
		r.maxBatch = 512
	}
	if r.shipInterval <= 0 {
		r.shipInterval = 100 * time.Millisecond
	}
	if r.semiSyncTimeout <= 0 {
		r.semiSyncTimeout = 5 * time.Second
	}
	if r.newClient == nil {
		r.newClient = func(endpoint string) *Client {
			return NewClient(endpoint, WithRetries(0))
		}
	}
	if opts.FollowerOf != "" {
		r.role = RoleFollower
	}
	store.repl = r
	d.repl = r
	if r.role == RolePrimary {
		r.startShippersLocked(opts.Followers)
	}
	return r
}

// Close stops the shippers and fails any pending semi-sync waits.
func (r *Replication) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.stopShippers()
	r.shipMu.Lock()
	close(r.ackCh) // wake semi-sync waiters; they re-check closed
	r.ackCh = make(chan struct{})
	r.shipMu.Unlock()
}

// Role returns the node's current role.
func (r *Replication) Role() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.role
}

// roleState returns the node's current role and a channel closed when
// that role next changes.
func (r *Replication) roleState() (string, <-chan struct{}) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.role, r.roleCh
}

// setRoleLocked switches the role; a change wakes roleState's waiters.
// Caller holds r.mu.
func (r *Replication) setRoleLocked(role string) {
	if role != r.role {
		close(r.roleCh)
		r.roleCh = make(chan struct{})
		r.role = role
	}
}

// Mode returns the configured ack mode.
func (r *Replication) Mode() AckMode { return r.mode }

// allowWrite gates client mutations: only the primary takes writes.
func (r *Replication) allowWrite() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.role != RolePrimary {
		return fmt.Errorf("%w: node is a follower of %s", ErrNotPrimary, r.primary)
	}
	return nil
}

// allowRead gates reads on a follower by staleness: with MaxReadLag set,
// a follower refuses to answer from state more than MaxReadLag records
// behind the primary's last-advertised high-water mark.
func (r *Replication) allowRead() error {
	if r.maxReadLag == 0 {
		return nil
	}
	r.mu.RLock()
	role, hwm := r.role, r.lastPrimarySeq
	r.mu.RUnlock()
	if role == RolePrimary {
		return nil
	}
	durable := r.d.durableSeq()
	if hwm > durable && hwm-durable > r.maxReadLag {
		return fmt.Errorf("%w: %d records behind", ErrReplicaLag, hwm-durable)
	}
	return nil
}

// settle completes a write's replication obligations after local
// durability: in semi-sync mode it blocks until a follower acks the
// token's sequence number (or the timeout passes → ErrReplicaLag).
func (r *Replication) settle(ctx context.Context, tok commitToken) error {
	if r.mode != AckSemiSync || tok.seq == 0 {
		return nil
	}
	timer := time.NewTimer(r.semiSyncTimeout)
	defer timer.Stop()
	for {
		// Lineage guard: settle is only reached by client writes this node
		// accepted as primary. If the node was demoted — or adopted a
		// different epoch — while the ack was pending, the record may be
		// rolled back by the snapshot reset that follows demotion, and the
		// ack counter now tracks a DIFFERENT history whose sequence numbers
		// will sail past tok.seq without ever containing this record.
		// Acking would report durability for a write that no longer exists
		// anywhere; refuse instead. The refusal is ambiguous by design (the
		// write may have survived), and the caller's retry against the real
		// primary is absorbed by the duplicate guard if it did.
		if r.Role() != RolePrimary || r.d.Epoch() != tok.epoch {
			return fmt.Errorf("%w: demoted while awaiting follower ack of seq %d", ErrNotPrimary, tok.seq)
		}
		r.shipMu.Lock()
		acked := r.ackSeq
		ch := r.ackCh
		noFollowers := len(r.shippers) == 0
		r.shipMu.Unlock()
		if acked >= tok.seq {
			return nil
		}
		r.mu.RLock()
		closed := r.closed
		r.mu.RUnlock()
		if closed || noFollowers {
			return fmt.Errorf("%w: no follower ack for seq %d", ErrReplicaLag, tok.seq)
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("%w: waiting for follower ack of seq %d: %v", ErrReplicaLag, tok.seq, ctx.Err())
		case <-timer.C:
			r.reg.Counter("repl.semisync_timeouts").Inc()
			return fmt.Errorf("%w: no follower ack for seq %d within %v", ErrReplicaLag, tok.seq, r.semiSyncTimeout)
		}
	}
}

// pokeShippers nudges every shipper to flush. Called by the durability
// layer on durable progress, possibly with the store mutex held — it must
// never block.
func (r *Replication) pokeShippers() {
	r.shipMu.Lock()
	for _, s := range r.shippers {
		select {
		case s.poke <- struct{}{}:
		default:
		}
	}
	r.shipMu.Unlock()
}

// wakeSettles broadcasts to every blocked semi-sync settle without
// advancing the ack cursor: each waiter re-runs its lineage guard and
// fails fast instead of sleeping out the semi-sync timeout against a
// history that can no longer ack it. Called on any role or epoch change.
func (r *Replication) wakeSettles() {
	r.shipMu.Lock()
	close(r.ackCh)
	r.ackCh = make(chan struct{})
	r.shipMu.Unlock()
}

// noteAck records a follower's durable cursor for semi-sync gating.
func (r *Replication) noteAck(seq uint64) {
	r.shipMu.Lock()
	if seq > r.ackSeq {
		r.ackSeq = seq
		close(r.ackCh)
		r.ackCh = make(chan struct{})
	}
	r.shipMu.Unlock()
}

// startShippersLocked replaces the shipper set. Caller holds no locks or
// only r.mu (the shipper goroutines take neither).
func (r *Replication) startShippersLocked(endpoints []string) {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	for i, ep := range endpoints {
		s := &shipper{
			idx:      i,
			endpoint: ep,
			client:   r.newClient(ep),
			poke:     make(chan struct{}, 1),
			stop:     make(chan struct{}),
			done:     make(chan struct{}),
		}
		r.shippers = append(r.shippers, s)
		go r.runShipper(s)
	}
}

// stopShippers stops and drains the current shipper set.
func (r *Replication) stopShippers() {
	r.shipMu.Lock()
	stopped := r.shippers
	r.shippers = nil
	r.shipMu.Unlock()
	for _, s := range stopped {
		close(s.stop)
	}
	for _, s := range stopped {
		<-s.done
	}
}

// runShipper is the per-follower ship loop: wake on poke (a local commit)
// or the retry ticker, then drain everything the follower is missing.
func (r *Replication) runShipper(s *shipper) {
	defer close(s.done)
	ticker := time.NewTicker(r.shipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.poke:
		case <-ticker.C:
		}
		if r.Role() != RolePrimary {
			return // demoted: the next promotion starts fresh shippers
		}
		r.shipPending(s)
	}
}

// shipPending pushes frames (or a snapshot) until the follower is caught
// up or an error defers to the next tick.
func (r *Replication) shipPending(s *shipper) {
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		durable := r.d.durableSeq()
		epoch := r.d.Epoch()
		s.mu.Lock()
		cursor, handshook, needSnap := s.cursor, s.handshook, s.needSnapshot
		s.mu.Unlock()

		req := ReplShipRequest{Epoch: epoch, PrimarySeq: durable}
		switch {
		case needSnap:
			snap, err := r.snapshotForShip()
			if err != nil {
				r.logf("repl: snapshot for %s: %v", s.endpoint, err)
				r.reg.Counter("repl.ship_errors").Inc()
				return
			}
			req.Snapshot, req.SnapshotSeq, req.Epoch = snap.data, snap.seq, snap.epoch
			req.Fence, req.FenceVersion = snap.fence, snap.fenceVersion
			req.PrimarySeq = snap.seq
		case cursor < durable:
			frames, snapNeeded, err := r.d.framesSince(cursor, r.maxBatch)
			if err != nil {
				r.logf("repl: frames for %s: %v", s.endpoint, err)
				r.reg.Counter("repl.ship_errors").Inc()
				return
			}
			if snapNeeded {
				s.mu.Lock()
				s.needSnapshot = true
				s.mu.Unlock()
				continue
			}
			req.Frames = frames
		case !handshook:
			// Empty probe: learn the follower's cursor (and epoch view).
		default:
			r.setLag(s, durable)
			return // caught up
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := s.client.ReplShip(ctx, req)
		cancel()
		if err != nil {
			r.reg.Counter("repl.ship_errors").Inc()
			if isNotPrimaryErr(err) {
				// The follower answers to a newer epoch: this node lost a
				// failover race. Step down rather than fight.
				r.logf("repl: follower %s rejects epoch %d: stepping down", s.endpoint, epoch)
				r.stepDown()
			}
			return
		}
		s.mu.Lock()
		s.handshook = true
		s.needSnapshot = resp.NeedSnapshot
		if resp.AppliedSeq > s.cursor || !resp.NeedSnapshot {
			s.cursor = resp.AppliedSeq
		}
		s.mu.Unlock()
		if resp.NeedSnapshot {
			continue
		}
		if n := len(req.Frames); n > 0 {
			r.reg.Counter("repl.shipped_frames").Add(int64(n))
		}
		if len(req.Snapshot) > 0 {
			r.reg.Counter("repl.snapshot_ships").Inc()
		}
		r.noteAck(resp.AppliedSeq)
		r.setLag(s, r.d.durableSeq())
	}
}

// setLag publishes the follower's lag gauges: a per-follower
// repl.lag_records.follower<i> series and the group-wide maximum as
// repl.lag_records.
func (r *Replication) setLag(s *shipper, durable uint64) {
	lag := int64(0)
	if c := s.acked(); durable > c {
		lag = int64(durable - c)
	}
	r.reg.Gauge(fmt.Sprintf("repl.lag_records.follower%d", s.idx)).Set(lag)
	maxLag := int64(0)
	r.shipMu.Lock()
	shippers := append([]*shipper(nil), r.shippers...)
	r.shipMu.Unlock()
	for _, sh := range shippers {
		var l int64
		if c := sh.acked(); durable > c {
			l = int64(durable - c)
		}
		if l > maxLag {
			maxLag = l
		}
	}
	r.reg.Gauge("repl.lag_records").Set(maxLag)
}

// isNotPrimaryErr reports whether a ship response decoded to the
// follower's "your epoch is stale" rejection.
func isNotPrimaryErr(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeNotPrimary
}

// stepDown demotes this node to follower (keeping its epoch — see the
// package comment) after discovering a newer primary.
func (r *Replication) stepDown() {
	r.mu.Lock()
	if r.role == RoleFollower {
		r.mu.Unlock()
		return
	}
	r.setRoleLocked(RoleFollower)
	r.mu.Unlock()
	r.reg.Counter("repl.stepdowns").Inc()
	r.wakeSettles()
	// The shipper goroutines observe the role change and exit; their
	// entries are replaced wholesale on the next promotion.
}

// shipSnapshot is what snapshotForShip hands the shipper: the encoded
// dataset plus the {seq, epoch, fence} it covers.
type shipSnapshot struct {
	data         []byte
	seq          uint64
	epoch        uint64
	fence        map[string]uint64
	fenceVersion uint64
}

// snapshotForShip compacts local state to disk (making everything
// durable — a shipped snapshot must never contain un-fsynced records, or
// a primary crash could leave a follower holding a "future" the restarted
// primary would then contradict at the same epoch) and returns the
// encoded dataset with the {seq, epoch, fence} it covers.
func (r *Replication) snapshotForShip() (shipSnapshot, error) {
	r.store.mu.Lock()
	if r.d.closed {
		r.store.mu.Unlock()
		return shipSnapshot{}, fmt.Errorf("%w: durability closed", ErrDurability)
	}
	if err := r.d.snapshotLocked(); err != nil {
		r.store.mu.Unlock()
		return shipSnapshot{}, err
	}
	ds := r.store.datasetLocked()
	snap := shipSnapshot{seq: r.d.seq, epoch: r.d.epoch}
	snap.fence, snap.fenceVersion = r.store.fenceStateLocked()
	r.store.mu.Unlock()
	var buf bytes.Buffer
	if err := ds.EncodeJSON(&buf); err != nil {
		return shipSnapshot{}, err
	}
	snap.data = buf.Bytes()
	return snap, nil
}

// ApplyShip is the follower half of the protocol (POST /v1/repl/frames).
// Epoch rules, in order:
//
//  1. Sender's epoch below ours → ErrNotPrimary (stale primary; it must
//     step down).
//  2. We are primary at the same epoch → ErrNotPrimary (split brain; at
//     most one writer per epoch, and we are it).
//  3. Sender's epoch above ours with only frames → NeedSnapshot (epochs
//     are adopted via snapshot only).
//  4. Snapshot present → reset to it (state, seq, and epoch).
//  5. Equal epoch, frames → append + apply, idempotently.
func (r *Replication) ApplyShip(ctx context.Context, req ReplShipRequest) (ReplShipResponse, error) {
	if err := ctx.Err(); err != nil {
		return ReplShipResponse{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	own := r.d.Epoch()
	if req.Epoch < own {
		return ReplShipResponse{}, fmt.Errorf("%w: ship from epoch %d, ours is %d", ErrNotPrimary, req.Epoch, own)
	}
	if r.Role() == RolePrimary {
		if req.Epoch == own {
			return ReplShipResponse{}, fmt.Errorf("%w: split brain — both primaries at epoch %d", ErrNotPrimary, own)
		}
		// A newer primary exists; this node missed its demotion. Step down
		// and take the ship as a follower.
		r.logf("repl: ship from newer epoch %d (ours %d): stepping down", req.Epoch, own)
		r.stepDown()
	}
	r.mu.Lock()
	if req.PrimarySeq > r.lastPrimarySeq {
		r.lastPrimarySeq = req.PrimarySeq
	}
	r.mu.Unlock()

	if len(req.Snapshot) > 0 {
		if err := r.resetFromSnapshot(req); err != nil {
			return ReplShipResponse{}, err
		}
		return ReplShipResponse{AppliedSeq: r.d.durableSeq(), Epoch: r.d.Epoch(), Durable: true}, nil
	}
	if req.Epoch > own {
		return ReplShipResponse{AppliedSeq: r.d.durableSeq(), Epoch: own, Durable: true, NeedSnapshot: true}, nil
	}
	if err := r.applyFrames(req.Frames, own); err != nil {
		return ReplShipResponse{}, err
	}
	r.publishOwnLag()
	return ReplShipResponse{AppliedSeq: r.d.durableSeq(), Epoch: own, Durable: true}, nil
}

// publishOwnLag exports the follower's own view of its lag.
func (r *Replication) publishOwnLag() {
	r.mu.RLock()
	hwm := r.lastPrimarySeq
	r.mu.RUnlock()
	lag := int64(0)
	if durable := r.d.durableSeq(); hwm > durable {
		lag = int64(hwm - durable)
	}
	r.reg.Gauge("repl.lag_records").Set(lag)
}

// applyFrames journals and applies shipped frames under one store
// critical section: skip what we already have, verify CRC + decode +
// contiguity, append to our WAL (fsynced), replay into memory. A gap
// (first new frame beyond seq+1) applies nothing and reports our cursor;
// the primary reships from there. epoch is the epoch ApplyShip's gate
// validated against; it is re-checked under the lock so the
// validate-and-apply pair is atomic.
func (r *Replication) applyFrames(frames []ReplFrame, epoch uint64) error {
	if len(frames) == 0 {
		return nil
	}
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	if r.d.closed {
		return fmt.Errorf("%w: durability closed", ErrDurability)
	}
	// ApplyShip's epoch/role gate ran before this critical section; a
	// concurrent promotion (SetRole persists a higher epoch, then flips
	// the role) may have landed in between. Appending the old lineage's
	// frames after the new epoch's first writes would interleave two
	// histories at contiguous seqs — exactly the failover race the epoch
	// fence exists to prevent — so the gate is re-applied under the lock.
	if own := r.d.epoch; own != epoch {
		return fmt.Errorf("%w: epoch advanced to %d during ship at epoch %d", ErrNotPrimary, own, epoch)
	}
	if r.Role() == RolePrimary {
		return fmt.Errorf("%w: split brain — both primaries at epoch %d", ErrNotPrimary, epoch)
	}
	fresh := frames[:0:0]
	recs := make([]walRecord, 0, len(frames))
	next := r.d.seq + 1
	for _, f := range frames {
		if f.Seq < next {
			continue // already applied: replay is idempotent
		}
		if f.Seq != next {
			return nil // gap: report our cursor, primary reships
		}
		if crc32.ChecksumIEEE(f.Payload) != f.CRC {
			return fmt.Errorf("%w: frame %d fails CRC", ErrMalformedRequest, f.Seq)
		}
		var rec walRecord
		if err := json.Unmarshal(f.Payload, &rec); err != nil {
			return fmt.Errorf("%w: frame %d undecodable: %v", ErrMalformedRequest, f.Seq, err)
		}
		if rec.Seq != f.Seq {
			return fmt.Errorf("%w: frame %d carries record seq %d", ErrMalformedRequest, f.Seq, rec.Seq)
		}
		fresh = append(fresh, f)
		recs = append(recs, rec)
		next++
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := r.d.appendReplicatedLocked(fresh); err != nil {
		return err
	}
	for _, rec := range recs {
		// Replay through the recovery path: validator-rejected records are
		// skipped identically on both sides, keeping histories aligned.
		r.store.replayRecordLocked(rec)
	}
	r.reg.Counter("repl.applied_frames").Add(int64(len(fresh)))
	r.d.maybeCompactLocked()
	return nil
}

// resetFromSnapshot replaces local state with a shipped snapshot,
// adopting its dataset, sequence number, and epoch, and persisting the
// result before answering (the adoption must survive a crash).
func (r *Replication) resetFromSnapshot(req ReplShipRequest) error {
	ds, err := decodeSnapshotDataset(req.Snapshot)
	if err != nil {
		return fmt.Errorf("%w: snapshot undecodable: %v", ErrMalformedRequest, err)
	}
	rebuilt := storeFromDataset(ds)
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	if r.d.closed {
		return fmt.Errorf("%w: durability closed", ErrDurability)
	}
	// Re-apply ApplyShip's epoch/role gate under the lock (see
	// applyFrames): a promotion that landed after the gate must not be
	// erased by a stale snapshot rewinding state, seq, and epoch.
	if own := r.d.epoch; req.Epoch < own {
		return fmt.Errorf("%w: snapshot from epoch %d, ours is %d", ErrNotPrimary, req.Epoch, own)
	} else if r.Role() == RolePrimary {
		if req.Epoch == own {
			return fmt.Errorf("%w: split brain — both primaries at epoch %d", ErrNotPrimary, own)
		}
		// A newer primary's snapshot raced our own promotion: this node
		// missed its demotion. Step down (the shippers observe the role
		// change and exit) and take the reset.
		r.logf("repl: snapshot from newer epoch %d (ours %d): stepping down", req.Epoch, own)
		r.stepDown()
	}
	r.store.tasks = rebuilt.tasks
	r.store.accounts = rebuilt.accounts
	r.store.order = rebuilt.order
	r.store.version++
	// Fence state must be installed before adoptSnapshotLocked writes the
	// local snapshot envelope, so the adopted fence is durable with the
	// adopted dataset.
	r.store.resetFenceLocked(req.Fence, req.FenceVersion)
	if err := r.d.adoptSnapshotLocked(req.SnapshotSeq, req.Epoch); err != nil {
		return err
	}
	r.reg.Counter("repl.snapshot_resets").Inc()
	r.logf("repl: reset from snapshot: seq %d, epoch %d, %d accounts", req.SnapshotSeq, req.Epoch, len(r.store.accounts))
	return nil
}

// SetRole handles POST /v1/repl/role: the router's promotion/demotion
// lever. Promotion requires a strictly newer epoch, which is persisted
// before the first write is accepted; demotion keeps the node's own epoch
// (see the package comment for why).
func (r *Replication) SetRole(ctx context.Context, req ReplRoleRequest) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	own := r.d.Epoch()
	switch req.Role {
	case RolePrimary:
		if req.Epoch <= own {
			return fmt.Errorf("%w: promotion epoch %d not above ours (%d)", ErrMalformedRequest, req.Epoch, own)
		}
		if err := r.d.persistEpoch(req.Epoch); err != nil {
			return err
		}
		r.stopShippers()
		r.mu.Lock()
		r.setRoleLocked(RolePrimary)
		r.primary = ""
		r.mu.Unlock()
		r.shipMu.Lock()
		r.ackSeq = 0 // follower acks below the new epoch do not count
		r.shipMu.Unlock()
		r.startShippersLocked(req.Followers)
		r.wakeSettles()
		r.reg.Counter("repl.promotions").Inc()
		r.logf("repl: promoted to primary at epoch %d (%d followers)", req.Epoch, len(req.Followers))
		return nil
	case RoleFollower:
		if req.Epoch < own {
			return fmt.Errorf("%w: demotion epoch %d below ours (%d)", ErrMalformedRequest, req.Epoch, own)
		}
		r.mu.Lock()
		wasPrimary := r.role == RolePrimary
		r.setRoleLocked(RoleFollower)
		r.primary = req.Primary
		r.mu.Unlock()
		if wasPrimary {
			r.stopShippers()
			r.wakeSettles()
			r.logf("repl: demoted to follower of %s (epoch stays %d)", req.Primary, own)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown role %q", ErrMalformedRequest, req.Role)
	}
}

// Status reports the node's replication state (GET /v1/repl/status).
func (r *Replication) Status() ReplStatusResponse {
	r.mu.RLock()
	role, hwm := r.role, r.lastPrimarySeq
	r.mu.RUnlock()
	durable := r.d.durableSeq()
	resp := ReplStatusResponse{
		Role:       role,
		Epoch:      r.d.Epoch(),
		DurableSeq: durable,
		AckMode:    r.mode,
	}
	if role == RoleFollower && hwm > durable {
		resp.Lag = hwm - durable
	}
	if role == RolePrimary {
		r.shipMu.Lock()
		shippers := append([]*shipper(nil), r.shippers...)
		r.shipMu.Unlock()
		for _, s := range shippers {
			fs := ReplFollowerStatus{Endpoint: s.endpoint, AckedSeq: s.acked()}
			if durable > fs.AckedSeq {
				fs.Lag = durable - fs.AckedSeq
			}
			resp.Followers = append(resp.Followers, fs)
		}
	}
	return resp
}

func (r *Replication) logf(format string, args ...any) {
	if r.log != nil {
		r.log.Printf(format, args...)
	}
}
