// Online resharding: reshape a live fleet's ring with zero acked loss.
// The coordinator runs inside the router and drives a fenced key handoff
// in one of three kinds — grow (admit a new replica group), shrink
// (decommission a group, draining its keys to the survivors), and
// rebalance (change the per-group vnode weights) — all through the same
// state machine:
//
//	seed     — snapshot-ship every moved account from each donor (a
//	           filtered dataset read replayed through the target groups'
//	           regular write API, so targets journal and replicate it
//	           like any other traffic);
//	catch-up — stream each donor's decoded WAL tail for the moved
//	           accounts until the lag is small;
//	flip     — publish the candidate topology (one atomic pointer swap;
//	           new writes route by the new ring);
//	fence    — journal a fence on each donor: further mutations naming a
//	           moved account answer wrong_shard, and requests stamped
//	           with a stale ring version are refused wholesale;
//	drain    — stream the remaining tail (writes that raced the flip)
//	           to the targets, then declare the migration done and
//	           purge the donors' fenced data (keeping the fence
//	           watermark, so stale writers still get wrong_shard).
//
// The kinds differ only in who donates and what the candidate ring looks
// like: a grow's donors are every existing group and the sole target is
// the joiner; a shrink's sole donor is the retiring group and the
// targets are all survivors; a rebalance makes every group a donor of
// whatever keyspace the new weights take from it.
//
// Every step is crash-survivable. Coordinator state is journaled to a
// file after each transition and each tail batch, so a restarted router
// resumes (post-flip it MUST complete; pre-flip it may instead abort with
// no ring change). Re-seeding and re-tailing are idempotent: the targets'
// (account, task) duplicate guard absorbs re-delivery, so a crash between
// a write and its journal entry cannot double-apply. A donor primary
// dying mid-handoff stalls the tail until failover promotes a follower —
// whose WAL holds byte-identical records at the same sequence numbers, so
// the persisted cursor stays valid.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// Migration phases, as journaled. Seeding and catch-up precede the flip:
// a failure there aborts with no ring change. Flipped and fenced are
// post-cutover: the ring changed, so the migration must run to completion
// (resume after a crash; a retry loop after transient failure).
const (
	MigrationSeeding = "seeding"
	MigrationCatchup = "catchup"
	MigrationFlipped = "flipped"
	MigrationFenced  = "fenced"
	MigrationDone    = "done"
	MigrationAborted = "aborted"
)

// Migration kinds, as journaled in MigrationJournal.Kind.
const (
	MigrationGrow      = "grow"
	MigrationShrink    = "shrink"
	MigrationRebalance = "rebalance"
)

// migrationStateGauge encodes a phase for the reshard.state gauge.
func migrationStateGauge(phase string) int64 {
	switch phase {
	case MigrationSeeding:
		return 1
	case MigrationCatchup:
		return 2
	case MigrationFlipped:
		return 3
	case MigrationFenced:
		return 4
	case MigrationDone:
		return 5
	case MigrationAborted:
		return 6
	}
	return 0
}

// migrationKindGauge encodes a kind for the reshard.kind gauge.
func migrationKindGauge(kind string) int64 {
	switch kind {
	case MigrationGrow:
		return 1
	case MigrationShrink:
		return 2
	case MigrationRebalance:
		return 3
	}
	return 0
}

// MigrationJournal is the coordinator's persisted state: everything a
// restarted router needs to resume (or cleanly abort) an in-flight
// reshard. Cursors[i] is donor i's WAL export cursor — records at or
// below it have been forwarded to the targets (or predate the seed
// snapshot, which covered them). Donor numbering is per kind: a grow or
// rebalance has one donor per pre-flip group in group order; a shrink
// has exactly one donor, the retiring group.
type MigrationJournal struct {
	// RingVersion is the topology version the migration installs at the
	// flip (current version + 1 at start).
	RingVersion uint64 `json:"ring_version"`
	// Phase is the last durably reached phase.
	Phase string `json:"phase"`
	// Kind says which reshape this is: grow, shrink, or rebalance.
	// Journals written before kinds existed carry none and are grows.
	Kind string `json:"kind,omitempty"`
	// Retired is the retiring group's pre-flip index (shrink only).
	Retired int `json:"retired"`
	// Addrs are the replica addresses (primary first) of the group being
	// admitted (grow) or retired (shrink), so a restarted router can
	// rebuild its clients — or verify the configured group still matches.
	Addrs []string `json:"addrs,omitempty"`
	// Seeds and Weights describe the candidate ring (see
	// NewRingWeighted): survivors keep their seeds across a shrink, so
	// the post-flip seed vector may be gapped and cannot be recomputed
	// from a group count alone.
	Seeds   []int     `json:"seeds,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	// Cursors holds one WAL export cursor per donor.
	Cursors []uint64 `json:"cursors"`
	// CursorEpochs holds the donor replication epoch each cursor was
	// minted under. A donor failover starts a new lineage that may reuse
	// sequence numbers the old one already burned, so a cursor is only
	// meaningful together with its epoch: on mismatch the tail re-seeds
	// instead of silently skipping the new lineage's records.
	CursorEpochs []uint64 `json:"cursor_epochs,omitempty"`
	// KeysMoved counts accounts re-homed by the migration.
	KeysMoved int `json:"keys_moved"`
	// BytesShipped estimates the seed + tail payload volume.
	BytesShipped int64 `json:"bytes_shipped"`
}

// Pending reports whether the journal describes an unfinished migration.
func (j MigrationJournal) Pending() bool {
	switch j.Phase {
	case MigrationSeeding, MigrationCatchup, MigrationFlipped, MigrationFenced:
		return true
	}
	return false
}

// Flipped reports whether the cutover already happened: the ring changed,
// so a resuming router must reinstall the candidate topology and complete
// the migration rather than abort it.
func (j MigrationJournal) Flipped() bool {
	return j.Phase == MigrationFlipped || j.Phase == MigrationFenced
}

// kind normalizes Kind: journals from before kinds existed are grows.
func (j MigrationJournal) kind() string {
	if j.Kind == "" {
		return MigrationGrow
	}
	return j.Kind
}

// LoadMigrationJournal reads a coordinator journal. ok=false (with a nil
// error) means no journal exists — no migration was ever started, or the
// last one was cleaned up.
func LoadMigrationJournal(path string) (MigrationJournal, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return MigrationJournal{}, false, nil
	}
	if err != nil {
		return MigrationJournal{}, false, fmt.Errorf("shard: read migration journal: %w", err)
	}
	var j MigrationJournal
	if err := json.Unmarshal(data, &j); err != nil {
		return MigrationJournal{}, false, fmt.Errorf("shard: decode migration journal %s: %w", path, err)
	}
	return j, true, nil
}

// MigrationOptions tunes a migration.
type MigrationOptions struct {
	// JournalPath is where coordinator state persists (required).
	JournalPath string
	// BatchSize bounds seed batches and WAL tail reads; <= 0 means 512,
	// clamped to platform.MaxBatchItems.
	BatchSize int
	// FlipLag is the total catch-up lag (donor WAL records not yet
	// forwarded) under which the coordinator cuts over; <= 0 means 64.
	// Correctness never depends on it — the post-fence drain forwards
	// whatever raced the flip — it only bounds the drain's length.
	FlipLag int
	// PollInterval paces catch-up polls and donor-failure retries;
	// <= 0 means 50ms.
	PollInterval time.Duration
	// Registry receives the reshard.* metrics; nil means obs.Default().
	Registry *obs.Registry
	// Logger receives phase diagnostics; nil disables.
	Logger *log.Logger
}

func (o MigrationOptions) withDefaults() MigrationOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 512
	}
	if o.BatchSize > platform.MaxBatchItems {
		o.BatchSize = platform.MaxBatchItems
	}
	if o.FlipLag <= 0 {
		o.FlipLag = 64
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// donorRef is one donating group: its handle plus its position in the
// pre-flip topology and (when it survives the migration) the candidate
// one. A shrink's retiring donor is absent from the candidate topology —
// candGi is -1 — which is why donors are carried as handles instead of
// candidate indices.
type donorRef struct {
	g      *group
	oldGi  int
	candGi int // -1 when the donor leaves the ring
}

// Migration is one in-flight reshard. Drive it with Run; at most one
// migration may be in flight per Store.
type Migration struct {
	store *Store
	opts  MigrationOptions
	reg   *obs.Registry
	log   *log.Logger

	// old is the pre-flip topology the migration started from; cand is
	// the candidate it installs at the flip. The moved-account filter
	// compares ownership between the two rings.
	old  *topology
	cand *topology

	// donors are the groups whose moved accounts ship out, indexed like
	// the journal's cursors.
	donors []donorRef

	j     MigrationJournal
	start time.Time
}

// newMigration assembles the coordinator core shared by every start and
// resume path.
func newMigration(s *Store, old, cand *topology, donors []donorRef, j MigrationJournal, opts MigrationOptions) *Migration {
	return &Migration{
		store:  s,
		opts:   opts,
		reg:    opts.Registry,
		log:    opts.Logger,
		old:    old,
		cand:   cand,
		donors: donors,
		j:      j,
	}
}

// StartMigration begins admitting gc as a new replica group (a grow). It
// validates the target, journals the initial state, and returns the
// coordinator; the caller drives it with Run (typically in its own
// goroutine). Exactly one migration may be in flight per store.
func (s *Store) StartMigration(gc GroupConfig, opts MigrationOptions) (*Migration, error) {
	opts = opts.withDefaults()
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("shard: migration needs a journal path")
	}
	groups, err := buildGroups([]GroupConfig{gc})
	if err != nil {
		return nil, err
	}
	joinW := gc.Weight
	if joinW == 0 {
		joinW = 1
	}
	if err := validWeight(joinW); err != nil {
		return nil, err
	}
	if !s.migrating.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("shard: a migration is already in flight")
	}
	cur := s.topology()
	seeds := append(append([]int(nil), cur.seeds...), nextSeed(cur.seeds))
	weights := growWeights(cur.weights, len(cur.groups), joinW)
	cand := &topology{
		version: cur.version + 1,
		ring:    NewRingWeighted(seeds, weights, s.vnodes),
		groups:  append(append([]*group(nil), cur.groups...), groups[0]),
		seeds:   seeds,
		weights: weights,
	}
	j := MigrationJournal{
		RingVersion:  cand.version,
		Phase:        MigrationSeeding,
		Kind:         MigrationGrow,
		Addrs:        append([]string(nil), gc.Addrs...),
		Seeds:        seeds,
		Weights:      weights,
		Cursors:      make([]uint64, len(cur.groups)),
		CursorEpochs: make([]uint64, len(cur.groups)),
	}
	m := newMigration(s, cur, cand, growDonors(cur), j, opts)
	if err := m.persist(); err != nil {
		s.migrating.Store(false)
		return nil, err
	}
	return m, nil
}

// StartDecommission begins retiring group gi (a shrink): the same fenced
// handoff as a grow with donor and joiner swapped — the retiring group is
// the sole donor and the survivors are the targets. The retired group
// stays in the pre-flip topology (and keeps serving reads) until the
// flip; after the drain its fenced data is purged and its failover
// probes retire. The caller decommissions one group at a time and keeps
// the group in the router's configuration until the journal reads done.
func (s *Store) StartDecommission(gi int, opts MigrationOptions) (*Migration, error) {
	opts = opts.withDefaults()
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("shard: migration needs a journal path")
	}
	if !s.migrating.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("shard: a migration is already in flight")
	}
	cur := s.topology()
	if gi < 0 || gi >= len(cur.groups) {
		s.migrating.Store(false)
		return nil, fmt.Errorf("%w: group %d out of range (fleet has %d)", platform.ErrMalformedRequest, gi, len(cur.groups))
	}
	if len(cur.groups) < 2 {
		s.migrating.Store(false)
		return nil, fmt.Errorf("%w: cannot decommission the last group", platform.ErrMalformedRequest)
	}
	cand := shrinkTopology(cur, gi, s.vnodes)
	retiring := cur.groups[gi]
	j := MigrationJournal{
		RingVersion:  cand.version,
		Phase:        MigrationSeeding,
		Kind:         MigrationShrink,
		Retired:      gi,
		Addrs:        append([]string(nil), retiring.addrs...),
		Seeds:        cand.seeds,
		Weights:      cand.weights,
		Cursors:      make([]uint64, 1),
		CursorEpochs: make([]uint64, 1),
	}
	donors := []donorRef{{g: retiring, oldGi: gi, candGi: -1}}
	m := newMigration(s, cur, cand, donors, j, opts)
	if err := m.persist(); err != nil {
		s.migrating.Store(false)
		return nil, err
	}
	return m, nil
}

// StartRebalance begins re-weighting the ring: every group becomes a
// donor of whatever keyspace the new weight vector takes from it, and
// the same seed/catch-up/flip/fence/drain machinery moves exactly that
// delta. weights is positional with the configured groups.
func (s *Store) StartRebalance(weights []float64, opts MigrationOptions) (*Migration, error) {
	opts = opts.withDefaults()
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("shard: migration needs a journal path")
	}
	if !s.migrating.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("shard: a migration is already in flight")
	}
	cur := s.topology()
	norm, err := rebalanceWeights(cur, weights)
	if err != nil {
		s.migrating.Store(false)
		return nil, err
	}
	cand := &topology{
		version: cur.version + 1,
		ring:    NewRingWeighted(cur.seeds, norm, s.vnodes),
		groups:  cur.groups,
		seeds:   cur.seeds,
		weights: norm,
	}
	j := MigrationJournal{
		RingVersion:  cand.version,
		Phase:        MigrationSeeding,
		Kind:         MigrationRebalance,
		Seeds:        cand.seeds,
		Weights:      norm,
		Cursors:      make([]uint64, len(cur.groups)),
		CursorEpochs: make([]uint64, len(cur.groups)),
	}
	m := newMigration(s, cur, cand, growDonors(cur), j, opts)
	if err := m.persist(); err != nil {
		s.migrating.Store(false)
		return nil, err
	}
	return m, nil
}

// ResumeMigration rebuilds the coordinator for a journaled migration —
// the router-restart path — dispatching on the journal's kind. For a
// grow, gc must describe the same joining group the journal names (the
// caller rebuilds its clients from j.Addrs); shrink and rebalance ignore
// gc, since every involved group is already in the store's configuration.
// A pre-flip journal resumes from seeding (idempotent); a post-flip
// journal reinstalls the candidate topology before resuming, because the
// fleet's donors are already fenced at j.RingVersion and the flipped ring
// is the only topology that can serve the moved accounts.
func (s *Store) ResumeMigration(gc GroupConfig, j MigrationJournal, opts MigrationOptions) (*Migration, error) {
	opts = opts.withDefaults()
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("shard: migration needs a journal path")
	}
	if !j.Pending() {
		return nil, fmt.Errorf("shard: journal phase %q is not resumable", j.Phase)
	}
	cur := s.topology()
	if j.RingVersion != cur.version+1 {
		return nil, fmt.Errorf("shard: journal targets ring v%d but the store is at v%d (want v%d)",
			j.RingVersion, cur.version, j.RingVersion-1)
	}
	if len(j.CursorEpochs) != len(j.Cursors) {
		// Journal written before epochs were recorded: zero epochs never
		// match a live donor, so every tail starts with a safe re-seed.
		j.CursorEpochs = make([]uint64, len(j.Cursors))
	}

	var cand *topology
	var donors []donorRef
	switch j.kind() {
	case MigrationGrow:
		if len(j.Cursors) != len(cur.groups) {
			return nil, fmt.Errorf("shard: journal has %d donor cursors for %d groups", len(j.Cursors), len(cur.groups))
		}
		groups, err := buildGroups([]GroupConfig{gc})
		if err != nil {
			return nil, err
		}
		seeds := j.Seeds
		if len(seeds) == 0 {
			// Journal written before seeds were recorded: a grow's seeds
			// are always the current vector plus the next free seed.
			seeds = append(append([]int(nil), cur.seeds...), nextSeed(cur.seeds))
		}
		if len(seeds) != len(cur.groups)+1 {
			return nil, fmt.Errorf("shard: journal has %d ring seeds for a grow over %d groups", len(seeds), len(cur.groups))
		}
		cand = &topology{
			version: j.RingVersion,
			ring:    NewRingWeighted(seeds, j.Weights, s.vnodes),
			groups:  append(append([]*group(nil), cur.groups...), groups[0]),
			seeds:   seeds,
			weights: j.Weights,
		}
		donors = growDonors(cur)
	case MigrationShrink:
		if len(j.Cursors) != 1 {
			return nil, fmt.Errorf("shard: shrink journal has %d donor cursors, want 1", len(j.Cursors))
		}
		if j.Retired < 0 || j.Retired >= len(cur.groups) {
			return nil, fmt.Errorf("shard: shrink journal retires group %d but the fleet has %d groups", j.Retired, len(cur.groups))
		}
		if len(cur.groups) < 2 {
			return nil, fmt.Errorf("shard: cannot resume a shrink with a single configured group")
		}
		retiring := cur.groups[j.Retired]
		if len(j.Addrs) > 0 && len(retiring.addrs) > 0 && j.Addrs[0] != retiring.addrs[0] {
			return nil, fmt.Errorf("shard: shrink journal retires %s but configured group %d is %s — keep the retiring group in the configuration until the journal reads done",
				j.Addrs[0], j.Retired, retiring.addrs[0])
		}
		cand = shrinkTopology(cur, j.Retired, s.vnodes)
		donors = []donorRef{{g: retiring, oldGi: j.Retired, candGi: -1}}
	case MigrationRebalance:
		if len(j.Cursors) != len(cur.groups) {
			return nil, fmt.Errorf("shard: journal has %d donor cursors for %d groups", len(j.Cursors), len(cur.groups))
		}
		norm, err := rebalanceWeights(cur, j.Weights)
		if err != nil && !errors.Is(err, errWeightsUnchanged) {
			return nil, err
		}
		cand = &topology{
			version: j.RingVersion,
			ring:    NewRingWeighted(cur.seeds, norm, s.vnodes),
			groups:  cur.groups,
			seeds:   cur.seeds,
			weights: norm,
		}
		donors = growDonors(cur)
	default:
		return nil, fmt.Errorf("shard: unknown migration kind %q", j.Kind)
	}

	if !s.migrating.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("shard: a migration is already in flight")
	}
	m := newMigration(s, cur, cand, donors, j, opts)
	if j.Flipped() {
		// The fleet already cut over before the restart: reinstall the
		// candidate topology before any traffic routes by the stale ring
		// and trips the donors' fences.
		s.installTopology(m.cand)
		m.stampRetired()
	}
	return m, nil
}

// growDonors makes every group of t a donor that keeps its position.
func growDonors(t *topology) []donorRef {
	donors := make([]donorRef, len(t.groups))
	for i, g := range t.groups {
		donors[i] = donorRef{g: g, oldGi: i, candGi: i}
	}
	return donors
}

// nextSeed picks the first vnode seed above every seed in use, so a
// joiner can never collide with a survivor's virtual points — even after
// shrinks left gaps in the vector.
func nextSeed(seeds []int) int {
	next := 0
	for _, s := range seeds {
		if s >= next {
			next = s + 1
		}
	}
	return next
}

// growWeights extends the current weight vector with the joiner's weight,
// staying nil when everything is the default 1.0.
func growWeights(cur []float64, n int, joinW float64) []float64 {
	if cur == nil && joinW == 1 {
		return nil
	}
	out := make([]float64, 0, n+1)
	if cur == nil {
		for i := 0; i < n; i++ {
			out = append(out, 1)
		}
	} else {
		out = append(out, cur...)
	}
	return append(out, joinW)
}

// errWeightsUnchanged marks a rebalance whose weights equal the current
// vector — refused at start (the operator typoed), tolerated on resume.
var errWeightsUnchanged = errors.New("weights unchanged")

// rebalanceWeights validates and normalizes an operator weight vector
// against topology t: positional, positive finite, all-1 collapsing to
// nil so the ring stays byte-identical to the unweighted construction.
func rebalanceWeights(t *topology, weights []float64) ([]float64, error) {
	if len(weights) != len(t.groups) {
		return nil, fmt.Errorf("%w: %d weights for %d groups", platform.ErrMalformedRequest, len(weights), len(t.groups))
	}
	uniform := true
	norm := make([]float64, len(weights))
	for i, w := range weights {
		if err := validWeight(w); err != nil {
			return nil, fmt.Errorf("group %d: %w", i, err)
		}
		norm[i] = w
		if w != 1 {
			uniform = false
		}
	}
	if uniform {
		norm = nil
	}
	unchanged := true
	for i := range weights {
		curW := 1.0
		if t.weights != nil {
			curW = t.weights[i]
		}
		if weights[i] != curW {
			unchanged = false
			break
		}
	}
	if unchanged {
		return norm, fmt.Errorf("%w: %w", platform.ErrMalformedRequest, errWeightsUnchanged)
	}
	return norm, nil
}

// shrinkTopology builds the candidate topology with group gi removed:
// survivors keep their group objects, seeds, and weights, so their
// virtual points — and therefore their keys — do not move.
func shrinkTopology(cur *topology, gi, vnodes int) *topology {
	groups := make([]*group, 0, len(cur.groups)-1)
	seeds := make([]int, 0, len(cur.groups)-1)
	var weights []float64
	if cur.weights != nil {
		weights = make([]float64, 0, len(cur.groups)-1)
	}
	for i, g := range cur.groups {
		if i == gi {
			continue
		}
		groups = append(groups, g)
		seeds = append(seeds, cur.seeds[i])
		if cur.weights != nil {
			weights = append(weights, cur.weights[i])
		}
	}
	return &topology{
		version: cur.version + 1,
		ring:    NewRingWeighted(seeds, weights, vnodes),
		groups:  groups,
		seeds:   seeds,
		weights: weights,
	}
}

// Journal returns the coordinator's current journaled state.
func (m *Migration) Journal() MigrationJournal { return m.j }

// persist writes the journal durably: the bytes are fsynced in the tmp
// file BEFORE the rename installs it (and the directory fsynced after),
// the same discipline as snapshots — rename alone orders nothing, and a
// crash after an unsynced rename can install an empty or torn journal,
// which would strand a post-flip migration unresumable.
func (m *Migration) persist() error {
	data, err := json.Marshal(m.j)
	if err != nil {
		return fmt.Errorf("shard: encode migration journal: %w", err)
	}
	tmp := m.opts.JournalPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: write migration journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("shard: write migration journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("shard: sync migration journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: close migration journal: %w", err)
	}
	if err := os.Rename(tmp, m.opts.JournalPath); err != nil {
		return fmt.Errorf("shard: install migration journal: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(m.opts.JournalPath)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	m.reg.Gauge("reshard.state").Set(migrationStateGauge(m.j.Phase))
	m.reg.Gauge("reshard.kind").Set(migrationKindGauge(m.j.kind()))
	m.reg.Gauge("reshard.keys_moved").Set(int64(m.j.KeysMoved))
	m.reg.Gauge("reshard.bytes_shipped").Set(m.j.BytesShipped)
	return nil
}

// setPhase journals a phase transition.
func (m *Migration) setPhase(phase string) error {
	m.j.Phase = phase
	m.logf("%s phase -> %s (ring v%d)", m.j.kind(), phase, m.j.RingVersion)
	return m.persist()
}

// moved reports whether the migration re-homes account away from donor
// di: the old ring owned it there and the candidate ring does not. (For
// a retiring donor the second half is vacuous — everything it owns
// moves.) Filtering on old-ring ownership also skips accounts a donor
// merely holds fenced from an earlier migration.
func (m *Migration) moved(di int, account string) bool {
	if account == "" {
		return false
	}
	d := m.donors[di]
	if m.old.ring.Shard(account) != d.oldGi {
		return false
	}
	return d.candGi < 0 || m.cand.ring.Shard(account) != d.candGi
}

// donorLabel names donor di in logs and errors.
func (m *Migration) donorLabel(di int) string {
	d := m.donors[di]
	if a := d.g.addr(d.g.primaryIdx()); a != "" {
		return fmt.Sprintf("%d (%s)", d.oldGi, a)
	}
	return fmt.Sprint(d.oldGi)
}

// stampRetired propagates the candidate ring version to retiring donors'
// clients: they are absent from the candidate topology, so
// installTopology's propagation misses them, and the coordinator's own
// post-flip export/fence/purge requests should carry the version the
// donor is fenced at rather than a stale stamp.
func (m *Migration) stampRetired() {
	for _, d := range m.donors {
		if d.candGi >= 0 {
			continue
		}
		for _, b := range d.g.replicas {
			if rc, ok := b.(replClient); ok {
				rc.Client().SetRingVersion(m.cand.version)
			}
		}
	}
}

// Run drives the migration to completion: seed, catch up, flip, fence,
// drain, purge. Pre-flip failures abort cleanly (journal marked aborted,
// no ring change, the fleet untouched). Post-flip failures leave the
// journal resumable — the caller retries or a restarted router resumes.
// ctx bounds the whole run; a donor group that is entirely dark stalls
// the run (retrying at PollInterval) rather than failing it, because
// failover is expected to promote a follower.
func (m *Migration) Run(ctx context.Context) (err error) {
	m.start = time.Now()
	defer m.store.migrating.Store(false)
	// Terminal stamping happens on every exit — success, abort, and
	// resumable failure alike — so the gauges never describe a run that
	// is no longer happening.
	defer func() {
		m.reg.Gauge("reshard.duration_seconds").Set(int64(time.Since(m.start).Seconds()))
	}()

	if m.j.Phase == MigrationSeeding || m.j.Phase == MigrationCatchup {
		if err := m.seedAndCatchup(ctx); err != nil {
			// Pre-flip, aborting is always clean: nothing routed to the
			// targets yet, donors still own every key.
			m.j.Phase = MigrationAborted
			if perr := m.persist(); perr != nil {
				m.logf("abort: persisting aborted state failed: %v", perr)
			}
			m.reg.Gauge("reshard.catchup_lag_records").Set(0)
			m.logf("aborted before flip: %v", err)
			return fmt.Errorf("shard: migration aborted before flip: %w", err)
		}
		m.store.installTopology(m.cand)
		m.stampRetired()
		if err := m.setPhase(MigrationFlipped); err != nil {
			return err
		}
	}

	if m.j.Phase == MigrationFlipped {
		if err := m.fenceDonors(ctx); err != nil {
			return fmt.Errorf("shard: migration fence (resumable): %w", err)
		}
		if err := m.setPhase(MigrationFenced); err != nil {
			return err
		}
	}

	if err := m.drain(ctx); err != nil {
		return fmt.Errorf("shard: migration drain (resumable): %w", err)
	}
	if err := m.setPhase(MigrationDone); err != nil {
		return err
	}
	// The purge survives the caller's cancellation: a router shutting
	// down right as the drain lands would otherwise cancel the GC between
	// the Done journal write and here, and nothing ever re-purges a done
	// migration. Detaching (with a bounded deadline) closes that window;
	// a donor that is genuinely unreachable still just keeps its garbage
	// until an operator purges it by hand.
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	m.purgeDonors(pctx)
	m.retireDonors()
	m.logf("%s done: %d accounts moved, ~%d bytes shipped, %s elapsed",
		m.j.kind(), m.j.KeysMoved, m.j.BytesShipped, time.Since(m.start).Round(time.Millisecond))
	return nil
}

// sleep waits one poll interval or until ctx ends.
func (m *Migration) sleep(ctx context.Context) error {
	t := time.NewTimer(m.opts.PollInterval)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// donorRetryable classifies donor-side failures worth waiting out: the
// donor's current primary is gone or mid-failover, and the poller (or our
// own refreshPrimary) will surface a promoted follower.
func donorRetryable(err error) bool {
	return errors.Is(err, platform.ErrShardUnavailable) ||
		errors.Is(err, platform.ErrNotPrimary) ||
		errors.Is(err, platform.ErrReplicaLag) ||
		errors.Is(err, platform.ErrOverloaded)
}

// withDonor runs fn against donor di's current primary, riding out
// failover: on a retryable failure it re-probes the group for the real
// primary and tries again at PollInterval until ctx ends. Non-retryable
// errors surface immediately. The donor is addressed by its group
// handle, never its topology position — post-flip, a shrink's retiring
// donor has no position.
func (m *Migration) withDonor(ctx context.Context, di int, fn func(platform.Store) error) error {
	g := m.donors[di].g
	for {
		err := fn(g.replicas[g.primaryIdx()])
		if err == nil || !donorRetryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		m.logf("donor %s: %v (retrying)", m.donorLabel(di), err)
		m.store.refreshPrimaryGroup(ctx, g)
		if serr := m.sleep(ctx); serr != nil {
			return err
		}
	}
}

// withTarget runs fn against target group tgi's current primary. Before
// the flip a target failure returns immediately — aborting is cheap and
// clean while the old ring still owns everything, and a joiner that is
// down should fail the migration, not stall it. After the flip there is
// no abort: the candidate ring is live, the drain MUST land on the
// survivors, so a target losing its primary stalls the handoff until
// promotion, riding out failover the way withDonor does for donors.
// Re-delivery after a partial attempt is absorbed by the duplicate guard.
func (m *Migration) withTarget(ctx context.Context, tgi int, fn func(platform.Store) error) error {
	for {
		err := m.store.writeTo(ctx, m.cand, tgi, fn)
		if err == nil || !donorRetryable(err) || !m.j.Flipped() {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		m.logf("target group %d: %v (retrying)", tgi, err)
		m.store.refreshPrimary(ctx, m.cand, tgi)
		if serr := m.sleep(ctx); serr != nil {
			return err
		}
	}
}

// forwardBatch replays moved submissions into their candidate-ring
// owners: a grow funnels everything to the joiner, a shrink spreads the
// retiring group's keys across every survivor, a rebalance follows the
// weight delta. Duplicate rejections are success: the record was already
// seeded or forwarded (a resume re-covers ground), and the duplicate
// guard is exactly what makes that idempotent instead of double-applied.
func (m *Migration) forwardBatch(ctx context.Context, items []platform.BatchSubmission) error {
	if len(items) == 0 {
		return nil
	}
	// Bucket by candidate owner, preserving relative order within each
	// target so one account's in-batch duplicate semantics survive.
	buckets := make(map[int][]platform.BatchSubmission)
	order := make([]int, 0, 2)
	for _, it := range items {
		tgi := m.cand.ring.Shard(it.Account)
		if _, ok := buckets[tgi]; !ok {
			order = append(order, tgi)
		}
		buckets[tgi] = append(buckets[tgi], it)
	}
	for _, tgi := range order {
		sub := buckets[tgi]
		for len(sub) > 0 {
			n := len(sub)
			if n > m.opts.BatchSize {
				n = m.opts.BatchSize
			}
			chunk := sub[:n]
			sub = sub[n:]
			var errs []error
			if err := m.withTarget(ctx, tgi, func(b platform.Store) error {
				errs = b.SubmitBatch(ctx, chunk)
				for _, e := range errs {
					if e != nil && donorRetryable(e) {
						return e // let withTarget re-probe and resend the chunk
					}
				}
				return nil
			}); err != nil {
				return err
			}
			for i, e := range errs {
				if e != nil && !errors.Is(e, platform.ErrDuplicateReport) {
					return fmt.Errorf("forward %s/task %d: %w", chunk[i].Account, chunk[i].Task, e)
				}
			}
			for _, it := range chunk {
				m.j.BytesShipped += int64(len(it.Account)) + 24
			}
		}
	}
	return nil
}

// forwardFingerprint replays a moved fingerprint feature vector to the
// account's candidate-ring owner.
func (m *Migration) forwardFingerprint(ctx context.Context, account string, features []float64) error {
	tgi := m.cand.ring.Shard(account)
	if err := m.withTarget(ctx, tgi, func(b platform.Store) error {
		return b.RecordFingerprintFeatures(ctx, account, features)
	}); err != nil {
		return fmt.Errorf("forward fingerprint %s: %w", account, err)
	}
	m.j.BytesShipped += int64(len(account) + 8*len(features))
	return nil
}

// seedDonor snapshots donor di's moved accounts into the targets and
// sets the tail cursor. The cursor is read from the SAME primary BEFORE
// the dataset read: the tail may then re-deliver records the dataset
// already contained (absorbed by the duplicate guard) but can never skip
// one. Returns the number of accounts seeded.
func (m *Migration) seedDonor(ctx context.Context, di int) (int, error) {
	var cursor, cursorEpoch uint64
	var accounts []mcs.Account
	err := m.withDonor(ctx, di, func(b platform.Store) error {
		exp, ok := b.(platform.Exporter)
		if !ok {
			return fmt.Errorf("%w: donor %s cannot export its WAL", platform.ErrUnimplemented, m.donorLabel(di))
		}
		probe, err := exp.ExportSince(ctx, math.MaxUint64, 1)
		if err != nil {
			return err
		}
		d, err := b.Dataset(ctx)
		if err != nil {
			return err
		}
		cursor = probe.DurableSeq
		cursorEpoch = probe.Epoch
		accounts = d.Accounts
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("seed donor %s: %w", m.donorLabel(di), err)
	}
	// Accumulate every moved account into one forward stream (forwardBatch
	// chunks it by BatchSize). One batch per account would cost one target
	// replication ack per account — at semi-sync ship cadence that drains
	// slower than sustained load refills, and the catch-up never converges.
	seeded := 0
	var items []platform.BatchSubmission
	for _, a := range accounts {
		if !m.moved(di, a.ID) {
			continue
		}
		seeded++
		if len(a.Fingerprint) > 0 {
			if err := m.forwardFingerprint(ctx, a.ID, a.Fingerprint); err != nil {
				return 0, err
			}
		}
		for _, o := range a.Observations {
			items = append(items, platform.BatchSubmission{Account: a.ID, Task: o.Task, Value: o.Value, At: o.Time})
		}
	}
	if err := m.forwardBatch(ctx, items); err != nil {
		return 0, err
	}
	m.j.Cursors[di] = cursor
	m.j.CursorEpochs[di] = cursorEpoch
	return seeded, nil
}

// tailDonor pumps donor di's WAL tail from the journaled cursor, forwards
// the moved records, advances the cursor, and returns the remaining lag.
// A compaction signal (the cursor's range older than the frames the donor
// keeps, which reach back one compaction) falls back to a full re-seed —
// safe because re-delivery is idempotent.
func (m *Migration) tailDonor(ctx context.Context, di int) (uint64, error) {
	for {
		var batch platform.ExportBatch
		err := m.withDonor(ctx, di, func(b platform.Store) error {
			exp, ok := b.(platform.Exporter)
			if !ok {
				return fmt.Errorf("%w: donor %s cannot export its WAL", platform.ErrUnimplemented, m.donorLabel(di))
			}
			var e error
			batch, e = exp.ExportSince(ctx, m.j.Cursors[di], m.opts.BatchSize)
			return e
		})
		if err != nil {
			return 0, fmt.Errorf("tail donor %s: %w", m.donorLabel(di), err)
		}
		if batch.SnapshotNeeded || batch.Epoch != m.j.CursorEpochs[di] {
			// A compacted tail range and a donor failover invalidate the
			// cursor the same way. The failover case is the subtle one: the
			// promoted follower's durable history may end a few records
			// short of the dead primary's, and its new lineage then reuses
			// those sequence numbers for different records — records a
			// seq-only cursor would silently skip.
			if batch.SnapshotNeeded {
				m.logf("donor %s: tail range compacted away; re-seeding", m.donorLabel(di))
			} else {
				m.logf("donor %s: failover changed epoch %d -> %d; cursor invalid, re-seeding",
					m.donorLabel(di), m.j.CursorEpochs[di], batch.Epoch)
			}
			if _, err := m.seedDonor(ctx, di); err != nil {
				return 0, err
			}
			if err := m.persist(); err != nil {
				return 0, err
			}
			continue
		}
		var items []platform.BatchSubmission
		for _, rec := range batch.Records {
			if !m.moved(di, rec.Account) {
				continue
			}
			switch rec.Op {
			case platform.ExportOpSubmit:
				items = append(items, platform.BatchSubmission{
					Account: rec.Account, Task: rec.Task, Value: rec.Value, At: rec.Time,
				})
			case platform.ExportOpFingerprint:
				if err := m.forwardFingerprint(ctx, rec.Account, rec.Features); err != nil {
					return 0, err
				}
			}
		}
		if err := m.forwardBatch(ctx, items); err != nil {
			return 0, err
		}
		m.j.Cursors[di] = batch.NextSeq
		if err := m.persist(); err != nil {
			return 0, err
		}
		lag := uint64(0)
		if batch.DurableSeq > batch.NextSeq {
			lag = batch.DurableSeq - batch.NextSeq
		}
		if len(batch.Records) == 0 || lag == 0 {
			return lag, nil
		}
	}
}

// seedAndCatchup runs the pre-flip phases: snapshot-seed every donor,
// then pump the WAL tails until the total lag drops under FlipLag.
func (m *Migration) seedAndCatchup(ctx context.Context) error {
	if m.j.Phase == MigrationSeeding {
		keys := 0
		for di := range m.donors {
			n, err := m.seedDonor(ctx, di)
			if err != nil {
				return err
			}
			keys += n
		}
		// Seeding restarts from scratch on resume, so the count is
		// assigned, not accumulated.
		m.j.KeysMoved = keys
		if err := m.setPhase(MigrationCatchup); err != nil {
			return err
		}
	}
	for {
		var total uint64
		for di := range m.donors {
			lag, err := m.tailDonor(ctx, di)
			if err != nil {
				return err
			}
			total += lag
		}
		m.reg.Gauge("reshard.catchup_lag_records").Set(int64(total))
		if total <= uint64(m.opts.FlipLag) {
			return nil
		}
		if err := m.sleep(ctx); err != nil {
			return err
		}
	}
}

// fenceDonors journals a fence on every donor at the new ring version:
// the donor's current moved-account set (which may have grown since the
// seed — accounts created while the migration ran) is refused further
// mutations, and any request stamped with a pre-flip ring version is
// refused wholesale. Fencing is idempotent, so a resume re-fences freely.
func (m *Migration) fenceDonors(ctx context.Context) error {
	for di := range m.donors {
		err := m.withDonor(ctx, di, func(b platform.Store) error {
			f, ok := b.(platform.Fencer)
			if !ok {
				return fmt.Errorf("%w: donor %s cannot fence accounts", platform.ErrUnimplemented, m.donorLabel(di))
			}
			ds, err := b.Dataset(ctx)
			if err != nil {
				return err
			}
			var accounts []string
			for _, a := range ds.Accounts {
				if m.moved(di, a.ID) {
					accounts = append(accounts, a.ID)
				}
			}
			return f.Fence(ctx, m.cand.version, accounts)
		})
		if err != nil {
			return fmt.Errorf("fence donor %s: %w", m.donorLabel(di), err)
		}
	}
	return nil
}

// drain pumps each donor's tail past its post-fence high-water mark. The
// fence guarantees no moved-account record lands after it, so reaching
// the post-fence durable sequence means every acked moved write — however
// it raced the flip — is on its new owner.
func (m *Migration) drain(ctx context.Context) error {
	for di := range m.donors {
		if err := m.drainDonor(ctx, di); err != nil {
			return err
		}
	}
	m.reg.Gauge("reshard.catchup_lag_records").Set(0)
	return nil
}

// drainDonor pumps donor di's tail to the post-fence high-water mark:
// everything at or below it must be forwarded; nothing above it can name
// a moved account. The target is only meaningful on the lineage it was
// probed from — a mid-drain failover re-seeds the tail (epoch mismatch)
// and the target must then be re-probed on the new lineage. That stays
// sound because the fence record itself is semi-sync replicated: any
// promotable follower already holds it, so the new lineage's high-water
// mark is post-fence too.
func (m *Migration) drainDonor(ctx context.Context, di int) error {
	for {
		var target, targetEpoch uint64
		if err := m.withDonor(ctx, di, func(b platform.Store) error {
			exp, ok := b.(platform.Exporter)
			if !ok {
				return fmt.Errorf("%w: donor %s cannot export its WAL", platform.ErrUnimplemented, m.donorLabel(di))
			}
			probe, err := exp.ExportSince(ctx, math.MaxUint64, 1)
			if err != nil {
				return err
			}
			target, targetEpoch = probe.DurableSeq, probe.Epoch
			return nil
		}); err != nil {
			return fmt.Errorf("drain donor %s: %w", m.donorLabel(di), err)
		}
		// Pump the tail until the cursor passes the target on the target's
		// own lineage. This must run even when the journaled cursor epoch
		// already disagrees with targetEpoch (a failover happened between
		// the cursor's mint and this probe — e.g. the journal survived a
		// router restart but the donor did not): tailDonor is the code
		// that notices the mismatch and re-seeds, so skipping it would
		// spin on the stale epoch forever.
		for m.j.CursorEpochs[di] != targetEpoch || m.j.Cursors[di] < target {
			lag, err := m.tailDonor(ctx, di)
			if err != nil {
				return err
			}
			m.reg.Gauge("reshard.catchup_lag_records").Set(int64(lag))
			if m.j.CursorEpochs[di] != targetEpoch {
				// The donor failed over while draining: the target belongs
				// to a dead lineage. Re-probe it on the current one.
				break
			}
			if m.j.Cursors[di] >= target {
				break
			}
			if err := m.sleep(ctx); err != nil {
				return err
			}
		}
		if m.j.CursorEpochs[di] == targetEpoch && m.j.Cursors[di] >= target {
			return nil
		}
	}
}

// purgeDonors garbage-collects the moved accounts' data from each donor
// after the migration durably completed: a journaled purge drops every
// account fenced at or below the candidate ring version while keeping
// the fence-version watermark, so the donor keeps answering wrong_shard
// to stale writers without carrying the moved observations in memory and
// every snapshot forever. Purging is best-effort — the migration is
// already done, and a donor that is briefly unreachable simply keeps its
// garbage until an operator purges it; failing the migration over it
// would re-run a handoff that already finished.
func (m *Migration) purgeDonors(ctx context.Context) {
	for di, d := range m.donors {
		cur := d.g.primaryIdx()
		f, ok := d.g.replicas[cur].(platform.Fencer)
		if !ok {
			continue
		}
		n, err := f.PurgeFenced(ctx, m.cand.version)
		if err != nil && errors.Is(err, platform.ErrNotPrimary) {
			// The donor failed over since the drain; one refresh, like any
			// routed write.
			if idx, ok2 := m.store.refreshPrimaryGroup(ctx, d.g); ok2 && idx != cur {
				if f2, ok3 := d.g.replicas[idx].(platform.Fencer); ok3 {
					n, err = f2.PurgeFenced(ctx, m.cand.version)
				}
			}
		}
		if err != nil {
			m.logf("donor %s: post-done purge failed (data stays until a later purge): %v", m.donorLabel(di), err)
			continue
		}
		if n > 0 {
			m.logf("donor %s: purged %d fenced accounts", m.donorLabel(di), n)
		}
		m.reg.Counter("reshard.purged_accounts").Add(int64(n))
	}
}

// retireDonors ends failover probe coverage for donors that left the
// ring (shrink only) — they needed it through the drain, but a retired
// group is no longer this router's to fail over, and /readyz should stop
// reporting it.
func (m *Migration) retireDonors() {
	for _, d := range m.donors {
		if d.candGi < 0 {
			m.store.retireGroupProbes(d.g)
		}
	}
}

func (m *Migration) logf(format string, args ...any) {
	if m.log != nil {
		m.log.Printf("reshard: "+format, args...)
	}
}
