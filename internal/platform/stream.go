package platform

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
	"sybiltd/internal/truth"
)

// TruthUpdate is one on-change truth push on the GET /v1/truths:watch
// stream. Seq is a stream-wide monotone sequence number: a subscriber
// that reconnects with its last seen Seq (the SSE Last-Event-ID) receives
// exactly the tasks whose estimates changed while it was away. Round is
// the evolving-truth round the estimate belongs to.
type TruthUpdate struct {
	Seq   uint64  `json:"seq"`
	Task  int     `json:"task"`
	Value float64 `json:"value"`
	Round int     `json:"round"`

	// born stamps when the hub published the update, for the push-latency
	// histogram. Server-side only; not on the wire.
	born time.Time
}

// StreamConfig tunes the truth-watch stream hub. The zero value gives
// sensible defaults for every field.
type StreamConfig struct {
	// Buffer is the per-subscriber pending-update cap. Within the buffer
	// updates are coalesced latest-wins per task, so a buffer of at least
	// the task count (the default, Buffer == 0) guarantees a subscriber
	// always eventually sees every task's latest estimate no matter how
	// slowly it reads; a smaller buffer additionally evicts the oldest
	// pending task under pressure. An eviction is a real loss, not just
	// deferral: the evicted update's Seq is below seqs delivered later, so
	// a Last-Event-ID resume will not re-send it and the subscriber stays
	// stale on that task until its estimate next moves. Size the buffer
	// below the task count only when per-task staleness is acceptable.
	Buffer int
	// MaxSubscribers bounds concurrent subscriptions; new arrivals beyond
	// it are shed with 503 + Retry-After (wire code "overloaded"). Zero
	// means 4096; negative means unlimited.
	MaxSubscribers int
	// Epsilon is the minimum estimate movement that counts as a change
	// worth pushing; zero means 1e-9. It suppresses float-noise republish,
	// not real signal.
	Epsilon float64
	// TickEvery, when positive, advances the evolving-truth round on a
	// timer so old reports decay (truth.Online semantics). Zero disables
	// automatic rounds: every report stays at full weight.
	TickEvery time.Duration
	// WriteWindow bounds each wire write to a subscriber: a connection
	// that cannot accept a flush within the window is disconnected (its
	// pending buffer was already coalescing latest-wins while it stalled).
	// Zero means 30s.
	WriteWindow time.Duration
}

const (
	// watchHeartbeat is the idle keep-alive interval on the SSE stream (a
	// ":" comment line, invisible to the event protocol).
	watchHeartbeat = 15 * time.Second
	// streamIterations caps each re-estimate's refinement loop: the
	// estimator warm-starts from the previous truths on every burst, so
	// deep refinement per burst buys nothing.
	streamIterations = 25
)

func (c StreamConfig) withDefaults(numTasks int) StreamConfig {
	if c.Buffer <= 0 {
		c.Buffer = numTasks
	}
	if c.MaxSubscribers == 0 {
		c.MaxSubscribers = 4096
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-9
	}
	if c.WriteWindow <= 0 {
		c.WriteWindow = 30 * time.Second
	}
	return c
}

// StreamHub fans accepted reports out to watch subscribers as on-change
// truth updates. The Server's submit handlers feed it every report the
// store acknowledged (single or batch) into a shared truth.Online
// estimator; a single hub goroutine coalesces bursts of reports into one
// incremental re-estimate, diffs the result against the last published
// values, and pushes only the tasks that moved.
//
// Backpressure is per subscriber and never propagates: each subscription
// owns a bounded buffer with latest-wins drop-intermediate semantics
// (a pending update for the same task is replaced in place and counted
// dropped), so one stalled consumer costs one buffer, not hub progress.
type StreamHub struct {
	cfg      StreamConfig
	numTasks int

	// estMu guards the estimator, the publish state, and the sequence
	// counter. Feeders take it briefly (map writes); the hub loop takes it
	// for the re-estimate. Lock order: estMu before subMu.
	estMu   sync.Mutex
	est     *truth.Online
	dirty   bool
	lastPub []TruthUpdate // per task: last published update (Seq 0 = never)
	seq     uint64

	subMu sync.Mutex
	subs  map[*Subscription]struct{}

	wake      chan struct{}
	done      chan struct{}
	loopDone  chan struct{}
	startOnce sync.Once
	closeOnce sync.Once

	subscribers  *obs.Gauge   // stream.subscribers: current fan-out
	rejections   *obs.Counter // stream.subscribe_rejections: shed at the cap
	reports      *obs.Counter // stream.reports: accepted reports fed in
	estimates    *obs.Counter // stream.estimates: re-estimates (coalescing visibility)
	pushed       *obs.Counter // stream.pushed_updates: updates handed to subscribers
	dropped      *obs.Counter // stream.dropped_updates: coalesced/evicted before delivery
	pushLatency  obs.Timer    // stream.push_latency_seconds: publish -> wire flush
	tickDuration time.Duration
}

// NewStreamHub creates a hub over numTasks tasks, recording metrics into
// reg (nil means obs.Default()). It fails only when numTasks < 1. The hub
// goroutine starts lazily on the first Subscribe, so a hub that is never
// watched costs one map write per report and no estimation at all.
func NewStreamHub(numTasks int, cfg StreamConfig, reg *obs.Registry) (*StreamHub, error) {
	if reg == nil {
		reg = obs.Default()
	}
	cfg = cfg.withDefaults(numTasks)
	est, err := truth.NewOnline(numTasks, truth.OnlineConfig{MaxIterations: streamIterations})
	if err != nil {
		return nil, err
	}
	return &StreamHub{
		cfg:          cfg,
		numTasks:     numTasks,
		est:          est,
		lastPub:      make([]TruthUpdate, numTasks),
		subs:         make(map[*Subscription]struct{}),
		wake:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		loopDone:     make(chan struct{}),
		subscribers:  reg.Gauge("stream.subscribers"),
		rejections:   reg.Counter("stream.subscribe_rejections"),
		reports:      reg.Counter("stream.reports"),
		estimates:    reg.Counter("stream.estimates"),
		pushed:       reg.Counter("stream.pushed_updates"),
		dropped:      reg.Counter("stream.dropped_updates"),
		pushLatency:  reg.Timer("stream.push_latency_seconds"),
		tickDuration: cfg.TickEvery,
	}, nil
}

// Feed ingests acknowledged reports into the shared estimator and marks
// it dirty; the hub loop re-estimates at its own pace, so a burst of
// submissions coalesces into one incremental recomputation. Safe for
// concurrent use; cheap enough for the ack path (map writes under a
// short-held mutex — never a full estimation).
func (h *StreamHub) Feed(items []BatchSubmission) {
	if len(items) == 0 {
		return
	}
	h.estMu.Lock()
	for _, it := range items {
		// The store validated account and task range before acknowledging;
		// a mismatch here (e.g. a task beyond the hub's range) is skipped
		// rather than poisoning the stream.
		if err := h.est.Observe(it.Account, it.Task, it.Value); err != nil {
			continue
		}
		h.dirty = true
	}
	h.estMu.Unlock()
	h.reports.Add(int64(len(items)))
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// reset empties the estimator and the published values, so no estimate
// from before outlives the reports behind it. The sequence carries on: a
// resume token from before stays valid and gets every task re-sent.
func (h *StreamHub) reset() {
	est, _ := truth.NewOnline(h.numTasks, truth.OnlineConfig{MaxIterations: streamIterations}) // numTasks >= 1
	h.estMu.Lock()
	h.est, h.dirty = est, true
	clear(h.lastPub)
	h.estMu.Unlock()
}

// seed preloads the estimator from the store's dataset (Server.syncHub,
// after a reset), without waking the loop: the subscriber that asked for
// the sync triggers the estimate. Pairs the estimator already holds are
// skipped: the handlers keep feeding between the reset and the read of
// the dataset, so a pair already present arrived via a live Feed, and
// observing it again would move it into the current round, undoing the
// decay it has aged through.
func (h *StreamHub) seed(ds *mcs.Dataset) {
	h.estMu.Lock()
	defer h.estMu.Unlock()
	for _, acct := range ds.Accounts {
		for _, ob := range acct.Observations {
			if h.est.Has(acct.ID, ob.Task) {
				continue
			}
			if h.est.Observe(acct.ID, ob.Task, ob.Value) == nil {
				h.dirty = true
			}
		}
	}
}

// Done is closed when the hub shuts down; stream handlers select on it to
// terminate their subscriptions.
func (h *StreamHub) Done() <-chan struct{} { return h.done }

// Close stops the hub loop and wakes every handler blocked on Done. Idempotent.
func (h *StreamHub) Close() {
	h.closeOnce.Do(func() {
		close(h.done)
	})
	// Only wait for the loop if it ever started.
	h.startOnce.Do(func() { close(h.loopDone) })
	<-h.loopDone
}

// Subscribe registers a watch subscription resuming after seq afterSeq
// (0 = from the beginning: the current snapshot). The subscription's
// buffer is pre-seeded with every task whose last published update is
// newer than afterSeq, so reconnecting clients catch up from state, not
// from a replay log. An afterSeq from a previous server incarnation
// (larger than anything published) falls back to the full snapshot.
func (h *StreamHub) Subscribe(afterSeq uint64) (*Subscription, error) {
	select {
	case <-h.done:
		return nil, fmt.Errorf("%w: stream hub closed", ErrOverloaded)
	default:
	}
	h.startOnce.Do(func() { go h.loop() })

	sub := &Subscription{
		hub:     h,
		buf:     h.cfg.Buffer,
		pending: make(map[int]TruthUpdate),
		notify:  make(chan struct{}, 1),
	}
	// Bring the publish state current, then seed + register under estMu so
	// no update can slip between the snapshot and the registration.
	h.estMu.Lock()
	if h.dirty {
		h.runEstimateLocked()
	}
	if afterSeq > h.seq {
		afterSeq = 0 // stale resume token from another incarnation
	}
	h.subMu.Lock()
	if h.cfg.MaxSubscribers > 0 && len(h.subs) >= h.cfg.MaxSubscribers {
		h.subMu.Unlock()
		h.estMu.Unlock()
		h.rejections.Inc()
		return nil, fmt.Errorf("%w: watch subscriber limit (%d) reached", ErrOverloaded, h.cfg.MaxSubscribers)
	}
	h.subs[sub] = struct{}{}
	h.subscribers.Set(int64(len(h.subs)))
	h.subMu.Unlock()
	for _, u := range h.lastPub {
		if u.Seq > afterSeq {
			sub.offer(u)
		}
	}
	h.estMu.Unlock()
	return sub, nil
}

// loop is the hub's single estimator goroutine: it sleeps until woken by
// Feed or its round ticker, coalesces everything that arrived, and
// publishes the diff.
func (h *StreamHub) loop() {
	defer close(h.loopDone)
	var tickC <-chan time.Time
	if h.tickDuration > 0 {
		ticker := time.NewTicker(h.tickDuration)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		select {
		case <-h.done:
			return
		case <-h.wake:
		case <-tickC:
			h.estMu.Lock()
			h.est.Tick()
			h.dirty = true
			h.estMu.Unlock()
		}
		h.estMu.Lock()
		if h.dirty {
			h.runEstimateLocked()
		}
		h.estMu.Unlock()
	}
}

// runEstimateLocked re-estimates incrementally (truth.Online warm-starts
// from the previous truths), diffs against the last published values, and
// broadcasts the tasks that moved. Caller holds estMu.
func (h *StreamHub) runEstimateLocked() {
	ests := h.est.Estimate()
	h.dirty = false
	h.estimates.Inc()
	round := h.est.Round()
	var updates []TruthUpdate
	now := time.Now()
	for task, v := range ests {
		if math.IsNaN(v) {
			continue
		}
		last := h.lastPub[task]
		if last.Seq != 0 && math.Abs(v-last.Value) <= h.cfg.Epsilon {
			continue // on change means value change, not round change
		}
		h.seq++
		u := TruthUpdate{Seq: h.seq, Task: task, Value: v, Round: round, born: now}
		h.lastPub[task] = u
		updates = append(updates, u)
	}
	if len(updates) == 0 {
		return
	}
	h.subMu.Lock()
	for sub := range h.subs {
		sub.offerAll(updates)
	}
	h.subMu.Unlock()
}

// Subscription is one watch consumer's bounded, latest-wins view of the
// update stream. Delivery: wait on Notify, then drain with Take.
type Subscription struct {
	hub *StreamHub

	mu      sync.Mutex
	pending map[int]TruthUpdate
	order   []int // FIFO of tasks with a pending update
	buf     int
	dropped uint64
	closed  bool

	notify chan struct{}
}

// offerAll enqueues a batch of updates.
func (s *Subscription) offerAll(updates []TruthUpdate) {
	for _, u := range updates {
		s.offer(u)
	}
}

// offer enqueues one update with latest-wins coalescing: a pending update
// for the same task is replaced in place (the superseded intermediate
// counts as dropped); a full buffer evicts its oldest pending task. The
// hub is never blocked by a slow consumer — offer is a bounded map write.
func (s *Subscription) offer(u TruthUpdate) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, exists := s.pending[u.Task]; exists {
		s.pending[u.Task] = u
		s.dropped++
		s.mu.Unlock()
		s.hub.dropped.Inc()
		return
	}
	if len(s.order) >= s.buf {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.pending, oldest)
		s.dropped++
		s.hub.dropped.Inc()
	}
	s.order = append(s.order, u.Task)
	s.pending[u.Task] = u
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify signals (edge-triggered, capacity 1) that updates are pending.
func (s *Subscription) Notify() <-chan struct{} { return s.notify }

// Take drains the pending updates in ascending Seq order (each task at
// most once, carrying its latest value) and counts them as pushed.
//
// The sort is what makes Last-Event-ID resume sound: coalescing replaces
// a pending update in place, so arrival order can put a freshly-coalesced
// high-Seq task ahead of an older low-Seq one. Seqs are assigned under
// estMu and every update offered after this drain is newer than anything
// drained, so sorting each batch makes the delivered Seq sequence
// globally monotone — a client that resumes from the last Seq it saw can
// never skip an update it was still owed.
func (s *Subscription) Take() []TruthUpdate {
	s.mu.Lock()
	if len(s.order) == 0 {
		s.mu.Unlock()
		return nil
	}
	out := make([]TruthUpdate, 0, len(s.order))
	for _, task := range s.order {
		out = append(out, s.pending[task])
		delete(s.pending, task)
	}
	s.order = s.order[:0]
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	s.hub.pushed.Add(int64(len(out)))
	return out
}

// Dropped returns how many updates this subscription coalesced away
// (superseded in place or evicted under buffer pressure).
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription and releases its buffer. Idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.pending = nil
	s.order = nil
	s.mu.Unlock()
	h := s.hub
	h.subMu.Lock()
	delete(h.subs, s)
	h.subscribers.Set(int64(len(h.subs)))
	h.subMu.Unlock()
}

// observePushLatency records publish→flush latency for delivered updates.
func (h *StreamHub) observePushLatency(updates []TruthUpdate, flushed time.Time) {
	for _, u := range updates {
		if !u.born.IsZero() {
			h.pushLatency.Observe(flushed.Sub(u.born))
		}
	}
}
