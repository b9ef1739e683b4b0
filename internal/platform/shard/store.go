package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/platform"
	"sybiltd/internal/truth"
)

// Options tunes New and NewReplicated.
type Options struct {
	// VirtualNodes is the per-shard virtual-node count on the ring;
	// <= 0 means DefaultVirtualNodes.
	VirtualNodes int
	// Tasks, when non-nil, is the published task list; nil makes New
	// fetch it from the first shard that answers. Every shard must be
	// configured with the identical task list — the ring partitions
	// accounts, not tasks.
	Tasks []mcs.Task
	// Addrs labels each shard in health reports and error messages
	// (typically its base URL). Optional; missing entries render as the
	// shard index alone. Used by New; NewReplicated takes per-replica
	// addresses in each GroupConfig instead.
	Addrs []string
}

// GroupConfig describes one replica group — one ring position. Replicas[0]
// is the assumed primary at construction time; the router revises that
// view on the fly when a write answers not_primary or the failover poller
// promotes a follower.
type GroupConfig struct {
	// Replicas are the group members, primary first.
	Replicas []platform.Store
	// Addrs labels each replica (typically its base URL); optional,
	// positionally matching Replicas.
	Addrs []string
	// Weight scales this group's share of the keyspace by scaling its
	// virtual-node count (see NewRingWeighted). Zero means the default
	// 1.0; negative or non-finite weights fail construction. Operators
	// use weights to size ring positions to heterogeneous hardware, and
	// change them live via Store.StartRebalance.
	Weight float64
}

// group is one ring position: a replica set with a current-primary view.
// The replica list is fixed at construction; only the primary index moves.
type group struct {
	replicas []platform.Store
	addrs    []string

	mu      sync.RWMutex
	primary int
}

func (g *group) primaryIdx() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.primary
}

func (g *group) setPrimary(i int) {
	g.mu.Lock()
	g.primary = i
	g.mu.Unlock()
}

func (g *group) addr(i int) string {
	if i < len(g.addrs) {
		return g.addrs[i]
	}
	return ""
}

// topology is one immutable routing generation: a ring over a group list,
// stamped with a monotonic version. The live topology sits behind an
// atomic pointer on Store; an online reshard builds the next generation
// off to the side (see admitCandidate) and publishes it in one pointer
// swap — the cutover is a single atomic store, never a half-installed
// ring. Group objects are shared between generations, so the primary view
// a failover established survives the swap.
type topology struct {
	version uint64
	ring    *Ring
	groups  []*group
	// seeds are the per-group vnode-label seeds the ring was built from
	// (see NewRingWeighted). They are positional with groups but NOT
	// equal to slice indices after a shrink: survivors keep their seeds,
	// so the seed vector may have gaps. Carrying them on the topology is
	// what lets a migration — and a restarted router adopting journaled
	// ring state — rebuild the exact same ring.
	seeds []int
	// weights are the per-group vnode weights; nil means uniform 1.0.
	weights []float64
}

// label names shard gi (by its current primary) in errors and health
// reports.
func (t *topology) label(gi int) string {
	g := t.groups[gi]
	if a := g.addr(g.primaryIdx()); a != "" {
		return fmt.Sprintf("shard %d (%s)", gi, a)
	}
	return fmt.Sprintf("shard %d", gi)
}

// replicaLabel names one replica of shard gi.
func (t *topology) replicaLabel(gi, ri int) string {
	g := t.groups[gi]
	if a := g.addr(ri); a != "" {
		return fmt.Sprintf("shard %d replica %d (%s)", gi, ri, a)
	}
	return fmt.Sprintf("shard %d replica %d", gi, ri)
}

// replClient is the optional backend capability the router uses for the
// replication control plane: status probes to find the primary after a
// not_primary rejection, and role flips during failover. RemoteStore
// provides it; backends without it simply never get probed.
type replClient interface {
	Client() *platform.Client
}

// Store routes operations across N replica groups by consistent hash of
// the account ID. Writes go to the current primary of the group owning the
// account — so the per-account duplicate guard, rate bucket, and WAL
// entries all live in exactly one place — and whole-campaign reads
// scatter-gather, falling back to followers when a group's primary is
// unreachable. It implements platform.Store plus the HealthReporter
// capability, so a platform.Server fronting it serves the identical /v1
// wire API with an aggregated /readyz.
//
// The ring and group list live in a versioned topology behind an atomic
// pointer: every operation routes against one consistent snapshot, and an
// online reshard (see Migration) grows the fleet by publishing the next
// topology generation mid-flight.
type Store struct {
	topo   atomic.Pointer[topology]
	vnodes int
	tasks  []mcs.Task

	// migrating is raised while an online reshard is in flight; /readyz
	// surfaces it next to the ring version.
	migrating atomic.Bool

	pollMu sync.Mutex
	poller *FailoverPoller

	// floorMu guards the ring-state persistence path enabled by
	// EnableRingStatePersistence; floorPath empty means disabled.
	floorMu   sync.Mutex
	floorPath string

	// kept holds the last td-tr grouping pass over the merged dataset,
	// for the next Aggregate.
	kept platform.KeptPass
}

// Store implements platform.Store plus the HealthReporter capability.
var (
	_ platform.Store          = (*Store)(nil)
	_ platform.HealthReporter = (*Store)(nil)
)

// New composes backends into one sharded store of single-replica groups.
// When opts.Tasks is nil the task list is fetched from the first shard
// that answers (ctx bounds the fetch); a fleet that is entirely down fails
// construction.
func New(ctx context.Context, backends []platform.Store, opts Options) (*Store, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	groups := make([]GroupConfig, len(backends))
	for i, b := range backends {
		groups[i] = GroupConfig{Replicas: []platform.Store{b}}
		if i < len(opts.Addrs) {
			groups[i].Addrs = []string{opts.Addrs[i]}
		}
	}
	return NewReplicated(ctx, groups, opts)
}

// NewReplicated composes replica groups into one sharded store — the ring
// spans the groups, not the individual replicas, so key placement is
// identical to an unreplicated fleet of the same group count and adding a
// group moves only the ring segments it captures.
func NewReplicated(ctx context.Context, configs []GroupConfig, opts Options) (*Store, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	groups, err := buildGroups(configs)
	if err != nil {
		return nil, err
	}
	weights, err := configWeights(configs)
	if err != nil {
		return nil, err
	}
	seeds := make([]int, len(groups))
	for i := range seeds {
		seeds[i] = i
	}
	s := &Store{vnodes: opts.VirtualNodes}
	s.installTopology(&topology{
		version: 1,
		ring:    NewRingWeighted(seeds, weights, opts.VirtualNodes),
		groups:  groups,
		seeds:   seeds,
		weights: weights,
	})
	if opts.Tasks != nil {
		s.tasks = append([]mcs.Task(nil), opts.Tasks...)
		return s, nil
	}
	t := s.topology()
	var lastErr error
	for gi, g := range t.groups {
		for ri, b := range g.replicas {
			tasks, err := b.Tasks(ctx)
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", t.replicaLabel(gi, ri), err)
				continue
			}
			s.tasks = tasks
			return s, nil
		}
	}
	return nil, fmt.Errorf("shard: fetch tasks from any shard: %w", lastErr)
}

// buildGroups materializes group state from configs.
func buildGroups(configs []GroupConfig) ([]*group, error) {
	groups := make([]*group, len(configs))
	for i, gc := range configs {
		if len(gc.Replicas) == 0 {
			return nil, fmt.Errorf("shard: group %d has no replicas", i)
		}
		addrs := make([]string, len(gc.Replicas))
		copy(addrs, gc.Addrs)
		groups[i] = &group{replicas: gc.Replicas, addrs: addrs}
	}
	return groups, nil
}

// configWeights extracts the per-group weight vector from configs,
// normalizing "all default" to nil so an unweighted fleet builds the
// exact same ring it always has.
func configWeights(configs []GroupConfig) ([]float64, error) {
	weights := make([]float64, len(configs))
	uniform := true
	for i, gc := range configs {
		w := gc.Weight
		if w == 0 {
			w = 1
		}
		if err := validWeight(w); err != nil {
			return nil, fmt.Errorf("shard: group %d: %w", i, err)
		}
		weights[i] = w
		if w != 1 {
			uniform = false
		}
	}
	if uniform {
		return nil, nil
	}
	return weights, nil
}

// validWeight screens a ring weight before it reaches NewRingWeighted
// (which panics on programmer error; operator input gets an error).
func validWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: ring weight %v must be a positive finite number", platform.ErrMalformedRequest, w)
	}
	return nil
}

// topology returns the live routing snapshot. Operations load it once and
// route every step of themselves against that one generation.
func (s *Store) topology() *topology { return s.topo.Load() }

// group returns group gi of the live topology, or nil when gi is out of
// range (a poller goroutine racing a topology it has not yet synced to).
func (s *Store) group(gi int) *group {
	t := s.topology()
	if gi < 0 || gi >= len(t.groups) {
		return nil
	}
	return t.groups[gi]
}

// installTopology publishes t as the live topology and propagates its
// version: every replica client's subsequent requests carry it in the
// X-Ring-Version header (the fence a reshard uses against stale routers),
// and the failover poller picks up any newly admitted groups.
func (s *Store) installTopology(t *topology) {
	s.topo.Store(t)
	for _, g := range t.groups {
		for _, b := range g.replicas {
			if rc, ok := b.(replClient); ok {
				rc.Client().SetRingVersion(t.version)
			}
		}
	}
	s.persistRingState(t)
	s.pollMu.Lock()
	p := s.poller
	s.pollMu.Unlock()
	if p != nil {
		p.syncGroups(t)
	}
}

// AdoptRingVersion republishes the current topology at version v. This is
// the restart path of a router whose fleet already completed a reshard
// while this process was down: its configuration now lists the grown
// fleet, but a fresh topology always starts at version 1, and mutations
// stamped below the fleet's fence version would be refused wholesale by
// the fenced donors. Versions at or below the current one are ignored —
// the version is monotonic.
func (s *Store) AdoptRingVersion(v uint64) {
	t := s.topology()
	if v <= t.version {
		return
	}
	s.installTopology(&topology{version: v, ring: t.ring, groups: t.groups, seeds: t.seeds, weights: t.weights})
}

// AdoptRingState republishes the current group list under an explicitly
// recorded ring shape: version, per-group vnode seeds, and weights. This
// is the restart path after a shrink or rebalance completed while the
// router was down — positional seeds would be wrong (survivors keep
// gapped seeds after a shrink), so the journal and the persisted ring
// floor record the exact shape and a rebooting router adopts it here.
// The seed vector must match the configured group count: a mismatch
// means the configuration no longer describes the fleet that produced
// the recorded ring, and serving from a guessed ring would route writes
// to non-owners — so the mismatch is an error and the caller must not
// serve. Versions at or below the current one are ignored.
func (s *Store) AdoptRingState(version uint64, seeds []int, weights []float64) error {
	t := s.topology()
	if len(seeds) != len(t.groups) {
		return fmt.Errorf("shard: recorded ring has %d groups, configuration has %d — refusing to guess placement", len(seeds), len(t.groups))
	}
	if weights != nil && len(weights) != len(seeds) {
		return fmt.Errorf("shard: recorded ring has %d weights for %d groups", len(weights), len(seeds))
	}
	for _, w := range weights {
		if err := validWeight(w); err != nil {
			return err
		}
	}
	if version <= t.version {
		return nil
	}
	s.installTopology(&topology{
		version: version,
		ring:    NewRingWeighted(seeds, weights, s.vnodes),
		groups:  t.groups,
		seeds:   append([]int(nil), seeds...),
		weights: append([]float64(nil), weights...),
	})
	return nil
}

// RingStatus reports the live topology version and whether an online
// reshard is in flight (part of platform.HealthReporter; /readyz folds
// it into its body).
func (s *Store) RingStatus() platform.RingStatus {
	return platform.RingStatus{Version: s.topology().version, Migrating: s.migrating.Load()}
}

// RingVersion returns the live topology version.
func (s *Store) RingVersion() uint64 { return s.topology().version }

// Shard returns the ring's owning shard index for an account — exposed so
// tests and operators can predict placement.
func (s *Store) Shard(account string) int { return s.topology().ring.Shard(account) }

// Shards returns the number of replica groups (ring positions).
func (s *Store) Shards() int { return len(s.topology().groups) }

// Primary returns the index within shard gi's replica group that the
// router currently believes is the primary — exposed so failover tests and
// operators can observe promotions.
func (s *Store) Primary(gi int) int { return s.topology().groups[gi].primaryIdx() }

// Tasks returns the task list every shard serves.
func (s *Store) Tasks(ctx context.Context) ([]mcs.Task, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", platform.ErrOverloaded, err)
	}
	out := make([]mcs.Task, len(s.tasks))
	copy(out, s.tasks)
	return out, nil
}

// refreshPrimary re-probes shard gi's replicas for their replication role
// and adopts the primary with the highest epoch. Returns the adopted
// replica index, or ok=false when no replica currently claims primary
// (mid-failover, or the group is unreplicated local stores).
func (s *Store) refreshPrimary(ctx context.Context, t *topology, gi int) (int, bool) {
	return s.refreshPrimaryGroup(ctx, t.groups[gi])
}

// refreshPrimaryGroup is refreshPrimary keyed by group handle rather than
// topology position — the migration coordinator needs it for a shrink's
// retiring donor, which is absent from the candidate topology.
func (s *Store) refreshPrimaryGroup(ctx context.Context, g *group) (int, bool) {
	best := -1
	var bestEpoch uint64
	for i, b := range g.replicas {
		rc, ok := b.(replClient)
		if !ok {
			continue
		}
		st, err := rc.Client().ReplStatus(ctx)
		if err != nil || st.Role != platform.RolePrimary {
			continue
		}
		if best == -1 || st.Epoch > bestEpoch {
			best, bestEpoch = i, st.Epoch
		}
	}
	if best < 0 {
		return 0, false
	}
	g.setPrimary(best)
	return best, true
}

// writeTo runs fn against shard gi's current primary within topology t. A
// not_primary rejection — the router's primary view went stale across a
// failover — re-probes the group for the real primary and retries once.
// The follower rejected the write before applying anything, so the retry
// cannot double-apply.
func (s *Store) writeTo(ctx context.Context, t *topology, gi int, fn func(platform.Store) error) error {
	g := t.groups[gi]
	cur := g.primaryIdx()
	err := fn(g.replicas[cur])
	if err == nil || len(g.replicas) == 1 || !errors.Is(err, platform.ErrNotPrimary) {
		return err
	}
	if idx, ok := s.refreshPrimary(ctx, t, gi); ok && idx != cur {
		return fn(g.replicas[idx])
	}
	return err
}

// routeWrite routes a single-account write to the account's owning shard.
// A wrong_shard refusal means the write raced an online-reshard cutover:
// the shard it reached was fenced at a newer ring version. Like
// not_primary, the shard refused before applying anything — so reload the
// topology (the cutover installs it before fencing the donors) and retry
// once against the account's new owner. Only when this router genuinely
// has no newer topology (it IS the stale router the fence exists for)
// does the typed refusal surface to the caller.
func (s *Store) routeWrite(ctx context.Context, account string, fn func(platform.Store) error) error {
	t := s.topology()
	gi := t.ring.Shard(account)
	err := s.writeTo(ctx, t, gi, fn)
	if err == nil {
		return nil
	}
	if errors.Is(err, platform.ErrWrongShard) {
		if nt := s.topology(); nt.version > t.version {
			ngi := nt.ring.Shard(account)
			if rerr := s.writeTo(ctx, nt, ngi, fn); rerr == nil {
				return nil
			} else {
				return fmt.Errorf("%s: %w", nt.label(ngi), rerr)
			}
		}
	}
	return fmt.Errorf("%s: %w", t.label(gi), err)
}

// Submit routes one observation to the account's owning shard.
func (s *Store) Submit(ctx context.Context, account string, task int, value float64, at time.Time) error {
	if account == "" {
		return platform.ErrEmptyAccount
	}
	return s.routeWrite(ctx, account, func(b platform.Store) error {
		return b.Submit(ctx, account, task, value, at)
	})
}

// submitBatchTo dispatches one shard's sub-batch to its current primary,
// with the same not_primary refresh-and-retry as single writes. A follower
// rejects the whole sub-batch at the door (every error not_primary, no
// item applied), so resending the full sub-batch to the real primary is
// safe.
func (s *Store) submitBatchTo(ctx context.Context, t *topology, gi int, sub []platform.BatchSubmission) []error {
	g := t.groups[gi]
	cur := g.primaryIdx()
	errs := g.replicas[cur].SubmitBatch(ctx, sub)
	if len(g.replicas) == 1 {
		return errs
	}
	retriable := false
	for _, err := range errs {
		if err != nil && errors.Is(err, platform.ErrNotPrimary) {
			retriable = true
			break
		}
	}
	if !retriable {
		return errs
	}
	if idx, ok := s.refreshPrimary(ctx, t, gi); ok && idx != cur {
		return g.replicas[idx].SubmitBatch(ctx, sub)
	}
	return errs
}

// dispatchBatch sends the routed sub-batches concurrently against
// topology t and writes per-item outcomes into errs at the original
// positions (clearing any previous error on success — the wrong_shard
// re-route path reuses this over the retried positions).
func (s *Store) dispatchBatch(ctx context.Context, t *topology, routed [][]int, items []platform.BatchSubmission, errs []error) {
	var wg sync.WaitGroup
	for sh, idxs := range routed {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			sub := make([]platform.BatchSubmission, len(idxs))
			for j, i := range idxs {
				sub[j] = items[i]
			}
			subErrs := s.submitBatchTo(ctx, t, sh, sub)
			for j, i := range idxs {
				var err error
				if j < len(subErrs) {
					err = subErrs[j]
				} else {
					// A backend violating the positional contract is a bug;
					// refuse the unanswered tail rather than acking it.
					err = fmt.Errorf("%w: short batch response", platform.ErrShardUnavailable)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", t.label(sh), err)
				} else {
					errs[i] = nil
				}
			}
		}(sh, idxs)
	}
	wg.Wait()
}

// SubmitBatch splits the batch by owning shard, dispatches the per-shard
// sub-batches concurrently, and reassembles the per-item errors in the
// caller's positions. One shard failing its whole sub-batch (e.g. a 503)
// fails only the items routed to it; the rest of the batch settles
// normally. Items refused wrong_shard by a freshly fenced donor are
// re-routed once through the newer topology, same as single writes.
func (s *Store) SubmitBatch(ctx context.Context, items []platform.BatchSubmission) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	if err := ctx.Err(); err != nil {
		e := fmt.Errorf("%w: %v", platform.ErrOverloaded, err)
		for i := range errs {
			errs[i] = e
		}
		return errs
	}
	t := s.topology()
	// routed[sh] holds the original positions routed to shard sh, in
	// order — the sub-batch preserves relative item order, so in-batch
	// duplicate semantics inside one account are unchanged (one account
	// is never split across shards).
	routed := make([][]int, len(t.groups))
	for i, it := range items {
		if it.Account == "" {
			errs[i] = platform.ErrEmptyAccount
			continue
		}
		sh := t.ring.Shard(it.Account)
		routed[sh] = append(routed[sh], i)
	}
	s.dispatchBatch(ctx, t, routed, items, errs)
	// wrong_shard items raced a reshard cutover: if a newer topology is
	// installed, re-route just those positions through it and retry once.
	if nt := s.topology(); nt.version > t.version {
		rerouted := make([][]int, len(nt.groups))
		n := 0
		for i := range items {
			if errs[i] != nil && errors.Is(errs[i], platform.ErrWrongShard) {
				sh := nt.ring.Shard(items[i].Account)
				rerouted[sh] = append(rerouted[sh], i)
				n++
			}
		}
		if n > 0 {
			s.dispatchBatch(ctx, nt, rerouted, items, errs)
		}
	}
	return errs
}

// RecordFingerprint routes a raw sign-in capture to the owning shard.
func (s *Store) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	if account == "" {
		return platform.ErrEmptyAccount
	}
	return s.routeWrite(ctx, account, func(b platform.Store) error {
		return b.RecordFingerprint(ctx, account, rec)
	})
}

// RecordFingerprintFeatures routes an extracted feature vector to the
// owning shard.
func (s *Store) RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error {
	if account == "" {
		return platform.ErrEmptyAccount
	}
	return s.routeWrite(ctx, account, func(b platform.Store) error {
		return b.RecordFingerprintFeatures(ctx, account, features)
	})
}

// readFailover reports whether a read error warrants trying another
// replica of the same group: the replica is gone or refusing reads, rather
// than answering with a real (e.g. validation) error.
func readFailover(err error) bool {
	return errors.Is(err, platform.ErrShardUnavailable) ||
		errors.Is(err, platform.ErrReplicaLag) ||
		errors.Is(err, platform.ErrNotPrimary)
}

// readFrom runs fn against shard gi's current primary, falling back to the
// group's other replicas when the primary is unreachable. Followers apply
// the same frames the primary journaled, so a follower read is the same
// data at most a ship interval stale — an explicitly weaker answer the
// caller prefers over none while the poller promotes a replacement.
func (s *Store) readFrom(ctx context.Context, t *topology, gi int, fn func(platform.Store) error) error {
	g := t.groups[gi]
	cur := g.primaryIdx()
	err := fn(g.replicas[cur])
	if err == nil || len(g.replicas) == 1 || !readFailover(err) {
		return err
	}
	for off := 1; off < len(g.replicas); off++ {
		if ctx.Err() != nil {
			return err
		}
		i := (cur + off) % len(g.replicas)
		fbErr := fn(g.replicas[i])
		if fbErr == nil {
			return nil
		}
		if !readFailover(fbErr) {
			return fbErr
		}
	}
	return err
}

// gather snapshots every shard's dataset concurrently, each group through
// its primary with follower fallback. dss[i] and errs[i] are shard i's
// outcome; exactly one of them is set.
//
// Each read is still one round trip, so every acked write is seen, but a
// RemoteStore revalidates the dataset its client kept from the previous
// read (see platform.Client.Dataset): an unchanged shard answers 304 with
// no body and the kept dataset is reused. The router therefore holds one
// decoded dataset per replica it has read from — in steady state about
// one campaign — and every dataset gather returns is shared and
// read-only.
func (s *Store) gather(ctx context.Context, t *topology) (dss []*mcs.Dataset, errs []error) {
	dss = make([]*mcs.Dataset, len(t.groups))
	errs = make([]error, len(t.groups))
	var wg sync.WaitGroup
	for i := range t.groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.readFrom(ctx, t, i, func(b platform.Store) error {
				ds, err := b.Dataset(ctx)
				if err != nil {
					return err
				}
				dss[i] = ds
				return nil
			})
		}(i)
	}
	wg.Wait()
	return dss, errs
}

// merge concatenates shard datasets in shard order under the composite
// task list, keeping from each shard only the accounts the ring assigns
// it. In steady state the filter is a no-op — every account a shard holds
// is one it owns. After an online reshard it is what makes the cutover
// non-destructive: the donor keeps its (fenced, frozen) copy of the moved
// accounts, and ownership filtering here is what excises that copy from
// reads instead of a deletion excising it from disk. Within a shard,
// accounts keep their registration order, so the merged account order is
// deterministic for a given fleet state. The merged accounts share their
// observation and fingerprint slices with the shard datasets, so the
// result is read-only too.
func (s *Store) merge(t *topology, dss []*mcs.Dataset) *mcs.Dataset {
	out := &mcs.Dataset{Tasks: make([]mcs.Task, len(s.tasks))}
	copy(out.Tasks, s.tasks)
	for gi, ds := range dss {
		if ds == nil {
			continue
		}
		for _, a := range ds.Accounts {
			if t.ring.Shard(a.ID) == gi {
				out.Accounts = append(out.Accounts, a)
			}
		}
	}
	return out
}

// Dataset scatter-gathers the full campaign. Unlike Aggregate and Stats
// it does not degrade on partial failure: an export silently missing the
// unreachable shards' accounts would poison archives and offline
// re-aggregation, so any failed shard (every replica down) fails the read
// (retryably).
func (s *Store) Dataset(ctx context.Context) (*mcs.Dataset, error) {
	t := s.topology()
	dss, errs := s.gather(ctx, t)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.label(i), err)
		}
	}
	return s.merge(t, dss), nil
}

// failedLabel builds the DegradedReason suffix naming unreachable shards.
func failedLabel(failed []int) string {
	parts := make([]string, len(failed))
	for i, sh := range failed {
		parts[i] = fmt.Sprint(sh)
	}
	return "shards_unreachable:" + strings.Join(parts, ",")
}

// Aggregate scatter-gathers shard datasets, merges the reachable ones,
// and aggregates the merged campaign through the same path as the
// single-node store, from the router's own kept grouping pass
// (platform.KeptPass) — on identical input the results are
// bit-identical to platform.AggregateDataset. A partial gather degrades:
// the result is flagged Degraded with the unreachable shards named,
// because a truth estimate missing part of the crowd is still an answer,
// just a weaker one. Only a fleet that is entirely unreachable is an
// error.
func (s *Store) Aggregate(ctx context.Context, method string) (truth.Result, []float64, error) {
	// Validate the method before touching the network: an unknown method
	// must answer 400 even when every shard is down.
	if _, err := platform.AlgorithmByName(method); err != nil {
		return truth.Result{}, nil, err
	}
	t := s.topology()
	dss, errs := s.gather(ctx, t)
	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == len(t.groups) {
		return truth.Result{}, nil, fmt.Errorf("%s: %w", t.label(failed[0]), errs[failed[0]])
	}
	res, unc, err := s.kept.Aggregate(ctx, method, s.merge(t, dss))
	if err != nil {
		return truth.Result{}, nil, err
	}
	if len(failed) > 0 {
		sort.Ints(failed)
		res.Degraded = true
		reason := failedLabel(failed)
		if res.DegradedReason != "" {
			res.DegradedReason += ";" + reason
		} else {
			res.DegradedReason = reason
		}
	}
	return res, unc, nil
}

// Stats sums shard summaries, each group read through its primary with
// follower fallback. Partial failures degrade (the reachable shards'
// counts, flagged) rather than erroring; a fleet entirely down is an
// error.
func (s *Store) Stats(ctx context.Context) (platform.StatsResponse, error) {
	type result struct {
		stats platform.StatsResponse
		err   error
	}
	t := s.topology()
	results := make([]result, len(t.groups))
	var wg sync.WaitGroup
	for i := range t.groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].err = s.readFrom(ctx, t, i, func(b platform.Store) error {
				st, err := b.Stats(ctx)
				if err != nil {
					return err
				}
				results[i].stats = st
				return nil
			})
		}(i)
	}
	wg.Wait()
	out := platform.StatsResponse{Tasks: len(s.tasks)}
	var failed []int
	for i, r := range results {
		if r.err != nil {
			failed = append(failed, i)
			continue
		}
		out.Accounts += r.stats.Accounts
		if r.stats.Degraded {
			out.Degraded = true
			out.DegradedReason = r.stats.DegradedReason
		}
	}
	if len(failed) == len(t.groups) {
		return platform.StatsResponse{}, fmt.Errorf("%s: %w", t.label(failed[0]), results[failed[0]].err)
	}
	if len(failed) > 0 {
		out.Degraded = true
		reason := failedLabel(failed)
		if out.DegradedReason != "" {
			out.DegradedReason += ";" + reason
		} else {
			out.DegradedReason = reason
		}
	}
	return out, nil
}

// retireGroupProbes ends failover coverage for a group that finished
// leaving the ring (its post-flip drain completed), if a poller is
// running.
func (s *Store) retireGroupProbes(g *group) {
	s.pollMu.Lock()
	p := s.poller
	s.pollMu.Unlock()
	if p != nil {
		p.retireGroup(g)
	}
}

// ShardHealth reports per-replica health (implements
// platform.HealthReporter, the aggregated /readyz). With a failover
// poller running, answers come from its probe cache — each entry carrying
// its probe age and known replication role — so /readyz stays cheap under
// load-balancer polling. Without a poller every replica is probed live; a
// backend without the Pinger capability (e.g. an in-process LocalStore)
// is trivially ready.
func (s *Store) ShardHealth(ctx context.Context) []platform.ShardHealth {
	s.pollMu.Lock()
	p := s.poller
	s.pollMu.Unlock()
	if p != nil {
		return p.health()
	}
	t := s.topology()
	// The slice is fully sized before any probe goroutine starts: each
	// goroutine writes its own pre-allocated element, so the slice header
	// is never touched concurrently (an append here would race the
	// writers and could strand their results in a stale backing array).
	total := 0
	for _, g := range t.groups {
		total += len(g.replicas)
	}
	out := make([]platform.ShardHealth, total)
	var wg sync.WaitGroup
	pos := 0
	for gi, g := range t.groups {
		for ri, b := range g.replicas {
			out[pos] = platform.ShardHealth{Shard: gi, Replica: ri, Addr: g.addr(ri)}
			p, ok := b.(platform.Pinger)
			if !ok {
				out[pos].Ready = true
				out[pos].Status = "ready"
				pos++
				continue
			}
			wg.Add(1)
			go func(h *platform.ShardHealth, p platform.Pinger) {
				defer wg.Done()
				rz, err := p.Ready(ctx)
				if err != nil {
					h.Status = "unreachable"
					h.Error = err.Error()
					return
				}
				h.Status = rz.Status
				h.Ready = rz.Status == "ready"
			}(&out[pos], p)
			pos++
		}
	}
	wg.Wait()
	return out
}
