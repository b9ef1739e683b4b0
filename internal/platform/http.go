package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/obs"
)

// API DTOs. Field names form the wire contract of the platform service.
type (
	// TaskDTO describes a published task.
	TaskDTO struct {
		ID   int     `json:"id"`
		Name string  `json:"name"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
	}
	// SubmissionRequest is one sensing report.
	SubmissionRequest struct {
		Account string    `json:"account"`
		Task    int       `json:"task"`
		Value   float64   `json:"value"`
		Time    time.Time `json:"time"`
	}
	// BatchSubmissionRequest is a bulk of sensing reports submitted in one
	// request (POST /v1/reports:batch). Items are journaled as one WAL
	// batch and acknowledged per item.
	BatchSubmissionRequest struct {
		Reports []SubmissionRequest `json:"reports"`
	}
	// BatchItemResult is one item's outcome, positionally matching the
	// request's Reports. Code/Error are set only on rejection; Code uses
	// the same stable wire codes as ErrorResponse.
	BatchItemResult struct {
		Status string `json:"status"` // "accepted" or "rejected"
		Code   string `json:"code,omitempty"`
		Error  string `json:"error,omitempty"`
	}
	// BatchSubmissionResponse reports the per-item outcomes plus tallies.
	BatchSubmissionResponse struct {
		Accepted int               `json:"accepted"`
		Rejected int               `json:"rejected"`
		Results  []BatchItemResult `json:"results"`
	}
	// FingerprintRequest carries a sign-in fingerprint: either a raw
	// motion capture (the live path) or an already-extracted feature
	// vector (the replay/import path). Exactly one form must be present.
	FingerprintRequest struct {
		Account    string    `json:"account"`
		SampleRate float64   `json:"sample_rate,omitempty"`
		AccelX     []float64 `json:"accel_x,omitempty"`
		AccelY     []float64 `json:"accel_y,omitempty"`
		AccelZ     []float64 `json:"accel_z,omitempty"`
		GyroX      []float64 `json:"gyro_x,omitempty"`
		GyroY      []float64 `json:"gyro_y,omitempty"`
		GyroZ      []float64 `json:"gyro_z,omitempty"`
		Features   []float64 `json:"features,omitempty"`
	}
	// AggregateRequest names the aggregation method to run.
	AggregateRequest struct {
		Method string `json:"method"`
	}
	// AggregateResponse returns per-task estimates. Tasks with no data are
	// reported with Estimated=false.
	AggregateResponse struct {
		Method string       `json:"method"`
		Truths []TruthDTO   `json:"truths"`
		Meta   ResponseMeta `json:"meta"`
	}
	// TruthDTO is one task's estimate. Value is always serialized when
	// present in the struct — a legitimate estimate of exactly 0 (a dBm
	// offset, a categorical label 0) must survive the wire, so the field
	// deliberately has no omitempty; gate on Estimated. Uncertainty is
	// the weighted standard error (omitted when unavailable or infinite,
	// e.g. for single-report tasks).
	TruthDTO struct {
		Task        int     `json:"task"`
		Value       float64 `json:"value"`
		Estimated   bool    `json:"estimated"`
		Uncertainty float64 `json:"uncertainty,omitempty"`
	}
	// ResponseMeta carries loop metadata. Degraded marks a result computed
	// on the graceful-degradation path (per-account truth discovery after
	// grouping timed out or failed); DegradedReason says why.
	ResponseMeta struct {
		Iterations     int    `json:"iterations"`
		Converged      bool   `json:"converged"`
		Degraded       bool   `json:"degraded,omitempty"`
		DegradedReason string `json:"degraded_reason,omitempty"`
	}
	// StatsResponse summarizes the store. Degraded marks a sharded
	// platform's partial answer (some shards unreachable, their accounts
	// uncounted); DegradedReason says why.
	StatsResponse struct {
		Tasks          int    `json:"tasks"`
		Accounts       int    `json:"accounts"`
		Degraded       bool   `json:"degraded,omitempty"`
		DegradedReason string `json:"degraded_reason,omitempty"`
	}
	// ErrorResponse is the uniform error body. Code is the stable
	// machine-readable contract (see the Code* constants); Error is the
	// human-readable message and may change between releases. RingVersion
	// accompanies CodeWrongShard: the ring version the refusing shard was
	// fenced at, so a stale router knows its topology is behind.
	ErrorResponse struct {
		Code        string `json:"code"`
		Error       string `json:"error"`
		RingVersion uint64 `json:"ring_version,omitempty"`
	}
	// FenceRequest is the POST /v1/admin/fence body: the migration
	// coordinator's instruction to a donor shard to durably refuse writes
	// for accounts the new ring moved elsewhere.
	FenceRequest struct {
		RingVersion uint64   `json:"ring_version"`
		Accounts    []string `json:"accounts"`
	}
	// FenceResponse acknowledges a fence with the shard's resulting fence
	// version.
	FenceResponse struct {
		Status       string `json:"status"`
		FenceVersion uint64 `json:"fence_version"`
	}
	// PurgeRequest is the POST /v1/admin/purge body: the migration
	// coordinator's (or an operator's) instruction to drop the data of
	// every account fenced at or below the given ring version, keeping the
	// fence itself (see Fencer.PurgeFenced).
	PurgeRequest struct {
		RingVersion uint64 `json:"ring_version"`
	}
	// PurgeResponse acknowledges a purge with the number of accounts
	// dropped.
	PurgeResponse struct {
		Status string `json:"status"`
		Purged int    `json:"purged"`
	}
)

// RingVersionHeader stamps mutating RPCs with the sender's ring version
// (online resharding). A shard that has been fenced at a higher version
// refuses the mutation with CodeWrongShard — the stale-router fence: a
// router that missed a cutover cannot write through its outdated
// topology. Unstamped requests are still subject to the per-account
// fence, just not the version check.
const RingVersionHeader = "X-Ring-Version"

// Err returns nil for an accepted batch item, or the rejection mapped
// back to the same typed sentinel a single Submit would have returned
// (errors.Is works on it exactly like on a Submit error).
func (r BatchItemResult) Err() error {
	if r.Status == "accepted" {
		return nil
	}
	if s := sentinelForCode(r.Code); s != nil {
		return fmt.Errorf("%w: %s", s, r.Error)
	}
	return fmt.Errorf("platform: batch item rejected (%s): %s", r.Code, r.Error)
}

// MetricsSnapshot is the body served at /v1/metrics: a point-in-time copy
// of the platform's metrics registry.
type MetricsSnapshot = obs.Snapshot

// Stable error codes carried in ErrorResponse.Code. Clients should branch
// on these (or on the sentinel errors Client maps them to), never on the
// error message text.
const (
	CodeAccountCapReached  = "account_cap_reached"
	CodeUnknownTask        = "unknown_task"
	CodeDuplicateReport    = "duplicate_report"
	CodeEmptyAccount       = "empty_account"
	CodeBadFingerprint     = "bad_fingerprint"
	CodeUnknownAggregation = "unknown_aggregation"
	CodeMalformedRequest   = "malformed_request"
	CodeDurability         = "durability_unavailable"
	// CodeRateLimited marks a per-account token-bucket rejection; the
	// response carries a Retry-After header and is safe to retry after it.
	CodeRateLimited = "rate_limited"
	// CodeOverloaded marks load shedding (admission queue full or wait
	// budget spent) or a request deadline hit mid-operation; the response
	// carries a Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeShardUnavailable marks a sharded platform unable to reach the
	// shard(s) an operation needs; retryable like overloaded.
	CodeShardUnavailable = "shard_unavailable"
	// CodeNotPrimary marks a write sent to a replica-group follower; the
	// caller must target the group's primary. 503 so a router-level retry
	// (after refreshing its primary view) can heal it.
	CodeNotPrimary = "not_primary"
	// CodeReplicaLag marks a replication guarantee miss: a semi-sync ack
	// timed out, or a follower read exceeded its staleness bound. 503.
	CodeReplicaLag = "replica_lag"
	// CodeUnimplemented marks an endpoint this node knowingly does not
	// serve (HTTP 501). NOT retryable: the answer will not change.
	CodeUnimplemented = "unimplemented"
	// CodeWrongShard marks a mutation refused because the account moved to
	// another replica group in an online reshard (or the request's stamped
	// ring version predates the fence). 503-class, but NOT retryable
	// against the same shard — the response carries ring_version and the
	// caller must refresh its topology and re-route.
	CodeWrongShard = "wrong_shard"
	CodeInternal   = "internal"
)

// codeForError maps a store/server error onto its wire code and HTTP
// status. The zero return is the internal-error fallback.
func codeForError(err error) (code string, status int) {
	switch {
	case errors.Is(err, ErrUnknownTask):
		return CodeUnknownTask, http.StatusBadRequest
	case errors.Is(err, ErrEmptyAccount):
		return CodeEmptyAccount, http.StatusBadRequest
	case errors.Is(err, ErrBadFingerprint):
		return CodeBadFingerprint, http.StatusBadRequest
	case errors.Is(err, ErrUnknownAggregation):
		return CodeUnknownAggregation, http.StatusBadRequest
	case errors.Is(err, ErrMalformedRequest):
		return CodeMalformedRequest, http.StatusBadRequest
	case errors.Is(err, ErrDuplicateReport):
		return CodeDuplicateReport, http.StatusConflict
	case errors.Is(err, ErrTooManyAccounts):
		return CodeAccountCapReached, http.StatusTooManyRequests
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited, http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded, http.StatusServiceUnavailable
	case errors.Is(err, ErrShardUnavailable):
		// The covering shard (or every shard, for a gathered read) was
		// unreachable; the client's bounded retry may land after the shard
		// recovers or the partition heals.
		return CodeShardUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, ErrNotPrimary):
		// 503: the router refreshes its primary view and retries against
		// the promoted replica.
		return CodeNotPrimary, http.StatusServiceUnavailable
	case errors.Is(err, ErrWrongShard):
		// 503: the router reloads its ring topology and re-routes to the
		// account's new owner group. Retrying here can never succeed.
		return CodeWrongShard, http.StatusServiceUnavailable
	case errors.Is(err, ErrReplicaLag):
		return CodeReplicaLag, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnimplemented):
		return CodeUnimplemented, http.StatusNotImplemented
	case errors.Is(err, ErrDurability):
		// 503, not 500: the request was valid and the client's bounded
		// retry may land after the disk recovers.
		return CodeDurability, http.StatusServiceUnavailable
	case isCtxErr(err):
		// A deadline or cancellation that reached the handler without
		// being wrapped: the server gave up under load, not the client's
		// request being wrong.
		return CodeOverloaded, http.StatusServiceUnavailable
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}

// sentinelForCode is the client-side inverse of codeForError: a stable
// code maps back to the typed sentinel error, so errors.Is works across
// the wire.
func sentinelForCode(code string) error {
	switch code {
	case CodeAccountCapReached:
		return ErrTooManyAccounts
	case CodeUnknownTask:
		return ErrUnknownTask
	case CodeDuplicateReport:
		return ErrDuplicateReport
	case CodeEmptyAccount:
		return ErrEmptyAccount
	case CodeBadFingerprint:
		return ErrBadFingerprint
	case CodeUnknownAggregation:
		return ErrUnknownAggregation
	case CodeMalformedRequest:
		return ErrMalformedRequest
	case CodeDurability:
		return ErrDurability
	case CodeRateLimited:
		return ErrRateLimited
	case CodeOverloaded:
		return ErrOverloaded
	case CodeShardUnavailable:
		return ErrShardUnavailable
	case CodeNotPrimary:
		return ErrNotPrimary
	case CodeReplicaLag:
		return ErrReplicaLag
	case CodeUnimplemented:
		return ErrUnimplemented
	case CodeWrongShard:
		return ErrWrongShard
	default:
		return nil
	}
}

// Server exposes a Store over HTTP. Every /v1 route is instrumented: a
// per-route request counter, 4xx/5xx error counters, and a latency
// histogram, plus a shared in-flight gauge, all in the server's metrics
// registry. The registry itself is served at /v1/metrics (JSON) and
// /metrics (Prometheus text).
//
// With ServerOptions.Limits set, every /v1 route additionally passes a
// weighted-concurrency admission gate (shed with 503 + Retry-After when
// the bounded wait queue overflows or the wait budget expires), mutating
// routes pass a per-account token-bucket rate limiter (429 + Retry-After),
// and the configured request deadline is attached to the request context
// and propagated into store, durability, and aggregation work. /healthz,
// /readyz, and the metrics endpoints bypass the gate and the latency
// histograms entirely: an operator must be able to observe an overloaded
// server, and scrapes must not compete with traffic for admission.
type Server struct {
	store Store
	mux   *http.ServeMux
	log   *log.Logger
	reg   *obs.Registry

	limits   ServerLimits
	gate     *gate           // nil when MaxConcurrent == 0
	limiter  *accountLimiter // nil when RatePerSec == 0
	hub      *StreamHub      // truth-watch fan-out (always present)
	watch    bool            // false under DisableWatch: no stream, no feed
	repl     *Replication    // nil on an unreplicated node
	draining atomic.Bool

	// hubMu guards the hub's sync with the store: hubSynced is set once a
	// watch seeded it, hubTerm is the primary term that watch ran in.
	hubMu     sync.Mutex
	hubSynced bool
	hubTerm   <-chan struct{}

	shedOverload *obs.Counter
	shedRate     *obs.Counter
	gateInUse    *obs.Gauge
	gateQueued   *obs.Gauge
}

// ServerOptions configures NewServerWithOptions. The zero value matches
// NewServer: process-wide metrics registry, no logging, no overload
// protection.
type ServerOptions struct {
	// Logger receives request-handling diagnostics; nil disables logging.
	Logger *log.Logger
	// Registry is the metrics registry; nil means obs.Default(). Library
	// metrics always flow to obs.Default(), so pass a custom registry only
	// when HTTP-layer isolation is wanted (e.g. hermetic tests).
	Registry *obs.Registry
	// Limits is the overload-protection configuration. The zero value
	// disables the admission gate, rate limiter, and request deadline.
	Limits ServerLimits
	// Stream tunes the GET /v1/truths:watch subscription hub. The zero
	// value enables streaming with defaults (per-task subscriber buffers,
	// 4096 subscribers).
	Stream StreamConfig
	// Replication, when non-nil, serves the /v1/repl endpoints (frame
	// shipping, status, role flips) against the node's replication
	// manager. Without it those endpoints answer 501 unimplemented.
	Replication *Replication
	// DisableWatch turns GET /v1/truths:watch into a typed 501
	// unimplemented response instead of a live stream, and the server
	// neither seeds nor feeds its hub. Without it, a server with
	// Replication streams only while its node is primary: a follower
	// refuses watches with not_primary and a demotion ends open streams.
	DisableWatch bool
}

// NewServer wires the HTTP handlers against the process-wide metrics
// registry (obs.Default()), so the /metrics endpoints also expose the
// framework/grouping/truth instrumentation recorded by the library.
// logger may be nil to disable logging.
func NewServer(store Store, logger *log.Logger) *Server {
	return NewServerWithOptions(store, ServerOptions{Logger: logger})
}

// NewServerWithRegistry is NewServer with an explicit metrics registry;
// nil means obs.Default().
func NewServerWithRegistry(store Store, logger *log.Logger, reg *obs.Registry) *Server {
	return NewServerWithOptions(store, ServerOptions{Logger: logger, Registry: reg})
}

// Route admission weights: heavier routes consume more gate capacity, so
// one aggregation in flight leaves room for several cheap reads but two
// aggregations can saturate a small gate — which is the point.
const (
	weightLight     = 1 // tasks, stats, submissions, fingerprints
	weightDataset   = 2 // full-campaign export
	weightAggregate = 4 // truth-discovery run
	// weightDeferred marks a route whose admission cost depends on the
	// request body (a batch costs one unit per item): handle() skips the
	// gate and the handler acquires its own weight after decoding.
	weightDeferred = 0
)

// NewServerWithOptions is the fully-configurable constructor.
func NewServerWithOptions(store Store, opts ServerOptions) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Server{
		store:  store,
		mux:    http.NewServeMux(),
		log:    opts.Logger,
		reg:    reg,
		repl:   opts.Replication,
		limits: opts.Limits.withDefaults(),
		watch:  !opts.DisableWatch,

		shedOverload: reg.Counter("http.shed.overload"),
		shedRate:     reg.Counter("http.shed.rate_limited"),
		gateInUse:    reg.Gauge("http.gate.in_use"),
		gateQueued:   reg.Gauge("http.gate.queued"),
	}
	if s.limits.MaxConcurrent > 0 {
		s.gate = newGate(s.limits.MaxConcurrent, s.limits.MaxQueue)
	}
	if s.limits.RatePerSec > 0 {
		s.limiter = newAccountLimiter(s.limits.RatePerSec, s.limits.RateBurst)
	}
	// The watch hub: the submit handlers feed it every report the store
	// acknowledged, and subscribers get per-task updates on change. The
	// first watch seeds it from the store's dataset (syncHub), so a
	// durable restart streams the recovered state, not an empty one. The
	// hub's goroutine starts lazily on the first subscription. A store that
	// cannot answer Tasks at construction (a router whose shards are still
	// coming up) gets a single-task hub rather than no hub: the watch
	// stream is a side channel, not worth failing construction over.
	numTasks := 0
	if tasks, err := store.Tasks(context.Background()); err == nil {
		numTasks = len(tasks)
	} else {
		s.logf("platform: tasks unavailable at construction (%v); stream hub sized for one task", err)
	}
	if numTasks < 1 {
		numTasks = 1 // zero-task stores exist only in hand-built tests
	}
	s.hub, _ = NewStreamHub(numTasks, opts.Stream, reg) // fails only below one task
	s.handle("GET /v1/tasks", weightLight, s.handleTasks)
	s.handle("POST /v1/submissions", weightLight, s.handleSubmit)
	s.handle("POST /v1/reports:batch", weightDeferred, s.handleSubmitBatch)
	s.handle("POST /v1/fingerprints", weightLight, s.handleFingerprint)
	s.handle("POST /v1/aggregate", weightAggregate, s.handleAggregate)
	s.handle("GET /v1/stats", weightLight, s.handleStats)
	s.handle("GET /v1/dataset", weightDataset, s.handleDataset)
	// The watch route is a long-lived stream: it bypasses the admission
	// gate (a subscription would pin gate units for its whole life,
	// starving request traffic), the per-request deadline, and the latency
	// histogram (an hours-long "request" would drag percentiles into
	// fiction). Fan-out safety comes from the hub's own subscriber cap and
	// per-subscriber bounded buffers instead.
	s.handleStream("GET /v1/truths:watch", s.handleWatch)
	// Replication plane. The routes exist on every node so a misdirected
	// ship fails with a typed 501 instead of a bare 404; the gate is
	// bypassed (weightDeferred) — replication traffic must flow precisely
	// when client load has the gate saturated, and a blocked ship turns
	// follower lag into a second incident.
	s.handle("POST /v1/repl/frames", weightDeferred, s.handleReplShip)
	s.handle("POST /v1/repl/role", weightDeferred, s.handleReplRole)
	s.mux.HandleFunc("GET /v1/repl/status", s.handleReplStatus)
	// Resharding plane: WAL tail export (the migration coordinator's
	// catch-up stream) and the donor fence. Both bypass the gate like the
	// replication routes — a migration must make progress precisely when
	// client load is heaviest, or it never converges.
	s.handle("POST /v1/repl/export", weightDeferred, s.handleReplExport)
	s.handle("POST /v1/admin/fence", weightDeferred, s.handleFence)
	s.handle("POST /v1/admin/purge", weightDeferred, s.handlePurge)
	// Unknown /v1 paths answer a typed 501 unimplemented JSON body rather
	// than the mux's bare 404, so a version-skewed client fails with a
	// decodable coded error instead of a body-parse failure.
	s.mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, fmt.Errorf("%w: no handler for %s %s", ErrUnimplemented, r.Method, r.URL.Path))
	})
	// The metrics and health endpoints themselves are not instrumented and
	// not gated: scrapes every few seconds would dominate the request
	// counters, and health checks must answer precisely when the gate is
	// saturated.
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// SetDraining marks the server as shutting down: /readyz starts answering
// 503 so load balancers stop routing new traffic, while in-flight and
// already-admitted requests complete normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// handle registers pattern with request counting, error counting, latency
// timing, in-flight tracking, and — when configured — deadline attachment
// and gate admission around h. Shed requests are counted in the route's
// request/error counters but not its latency histogram: a rejection in
// microseconds would drag the percentiles into fiction.
func (s *Server) handle(pattern string, weight int, h http.HandlerFunc) {
	base := "http." + routeMetricName(pattern)
	requests := s.reg.Counter(base + ".requests")
	errors4xx := s.reg.Counter(base + ".errors_4xx")
	errors5xx := s.reg.Counter(base + ".errors_5xx")
	latency := s.reg.Timer(base + ".latency_seconds")
	inFlight := s.reg.Gauge("http.in_flight")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			requests.Inc()
			switch {
			case rec.status >= 500:
				errors5xx.Inc()
			case rec.status >= 400:
				errors4xx.Inc()
			}
		}()
		if s.limits.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.limits.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.gate != nil && weight != weightDeferred {
			if err := s.gate.acquire(r.Context(), weight, s.limits.QueueTimeout); err != nil {
				s.shedOverload.Inc()
				s.updateGateGauges()
				s.writeError(rec, err)
				return
			}
			s.updateGateGauges()
			defer func() {
				s.gate.release(weight)
				s.updateGateGauges()
			}()
		}
		sw := latency.Start()
		h(rec, r)
		sw.Stop()
	})
}

// handleStream registers a streaming route: request/error counting and
// in-flight tracking like handle, but no latency histogram, no admission
// gate, and no request deadline — the three things that would kill or be
// killed by a long-lived subscription.
func (s *Server) handleStream(pattern string, h http.HandlerFunc) {
	base := "http." + routeMetricName(pattern)
	requests := s.reg.Counter(base + ".requests")
	errors4xx := s.reg.Counter(base + ".errors_4xx")
	errors5xx := s.reg.Counter(base + ".errors_5xx")
	inFlight := s.reg.Gauge("http.in_flight")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			requests.Inc()
			switch {
			case rec.status >= 500:
				errors5xx.Inc()
			case rec.status >= 400:
				errors4xx.Inc()
			}
		}()
		h(rec, r)
	})
}

// Close stops the stream hub, disconnecting watch subscribers. The HTTP
// routes keep serving; call during shutdown after draining.
func (s *Server) Close() {
	s.hub.Close()
}

// handleWatch serves GET /v1/truths:watch: a server-push SSE stream of
// on-change truth updates. Resume with the standard Last-Event-ID header
// (or ?from=<seq>): the subscriber is seeded with every task whose
// estimate changed after that sequence number, falling back to a full
// snapshot of the current estimates.
//
// A DisableWatch server answers 501 unimplemented. A replicated node
// streams only while it is primary: a follower's state advances by
// shipped frames, which never pass the submit handlers that feed the hub,
// so a follower refuses with not_primary and a demotion ends every open
// stream; watchers reconnect to the router or the new primary.
//
// The stream is exempt from the server-wide read/write timeouts (cleared
// via http.ResponseController) — those exist to kill stuck requests, and
// a subscription is not stuck — but every individual write carries a
// bounded deadline, so a peer that stops draining its socket for longer
// than the write window is disconnected rather than pinning the handler.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if !s.watch {
		s.writeError(w, fmt.Errorf("%w: truth streaming is not served on this node", ErrUnimplemented))
		return
	}
	var demoted <-chan struct{} // nil, never ready, on an unreplicated node
	if s.repl != nil {
		var role string
		if role, demoted = s.repl.roleState(); role != RolePrimary {
			s.writeError(w, fmt.Errorf("%w: truth streaming is served by the primary", ErrNotPrimary))
			return
		}
	}
	s.syncHub(r.Context(), demoted)
	var afterSeq uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		afterSeq, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.URL.Query().Get("from"); v != "" {
		afterSeq, _ = strconv.ParseUint(v, 10, 64)
	}
	sub, err := s.hub.Subscribe(afterSeq)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer sub.Close()

	rc := http.NewResponseController(w)
	// Lift the connection's slowloris deadlines: this response is meant to
	// outlive them. Errors are ignored — a ResponseWriter without deadline
	// support (some test recorders) still streams, it just can't shed a
	// jammed peer early.
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	writeWindow := s.hub.cfg.WriteWindow
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.hub.Done():
			return
		case <-demoted:
			return
		case <-heartbeat.C:
			_ = rc.SetWriteDeadline(time.Now().Add(writeWindow))
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			_ = rc.SetWriteDeadline(time.Time{})
		case <-sub.Notify():
			updates := sub.Take()
			if len(updates) == 0 {
				continue
			}
			_ = rc.SetWriteDeadline(time.Now().Add(writeWindow))
			for _, u := range updates {
				payload, err := json.Marshal(u)
				if err != nil {
					s.logf("platform: marshal truth update: %v", err)
					continue
				}
				if _, err := fmt.Fprintf(w, "id: %d\nevent: truth\ndata: %s\n\n", u.Seq, payload); err != nil {
					return
				}
			}
			if err := rc.Flush(); err != nil {
				return
			}
			_ = rc.SetWriteDeadline(time.Time{})
			s.hub.observePushLatency(updates, time.Now())
		}
	}
}

// syncHub rebuilds the hub's estimator from the store at the first watch
// of each primary term (term is the role channel that closes when it
// ends; nil for the one term of an unreplicated node). The handlers feed
// only what this server acknowledges, while the store also holds what it
// recovered from disk or applied as a follower, and a snapshot it adopted
// may have erased reports the hub held. A failed read (the watcher gone,
// say) leaves the sync to the next watch.
func (s *Server) syncHub(ctx context.Context, term <-chan struct{}) {
	s.hubMu.Lock()
	defer s.hubMu.Unlock()
	if s.hubSynced && s.hubTerm == term {
		return
	}
	// Empty the estimator before reading the store: a report acknowledged
	// before the read is in the dataset, one acknowledged after it is fed
	// after the reset, and one fed in between is in both, which seed skips.
	s.hub.reset()
	if ds, err := s.store.Dataset(ctx); err == nil {
		s.hub.seed(ds)
		s.hubSynced, s.hubTerm = true, term
	}
}

func (s *Server) updateGateGauges() {
	if s.gate == nil {
		return
	}
	inUse, queued := s.gate.load()
	s.gateInUse.Set(int64(inUse))
	s.gateQueued.Set(int64(queued))
}

// routeMetricName turns a mux pattern like "POST /v1/aggregate" into a
// metric segment like "post_v1_aggregate".
func routeMetricName(pattern string) string {
	name := strings.ToLower(pattern)
	name = strings.Trim(strings.NewReplacer(" ", "_", "/", "_").Replace(name), "_")
	for strings.Contains(name, "__") {
		name = strings.ReplaceAll(name, "__", "_")
	}
	return name
}

// statusRecorder captures the status code written by a handler.
//
// It forwards the optional ResponseWriter interfaces a streaming handler
// needs: Flush for the legacy `w.(http.Flusher)` assertion and Unwrap for
// http.ResponseController (Flush, SetReadDeadline, SetWriteDeadline).
// Without these, every handler behind the instrumented mux silently lost
// the ability to stream — the embedded ResponseWriter satisfies only the
// methods in the interface, so the underlying Flusher was unreachable and
// chunked/SSE responses buffered until the handler returned.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying Flusher, if any.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("platform: encode response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, status := codeForError(err)
	if code == CodeRateLimited || code == CodeOverloaded {
		// Shed-load responses advertise when to come back. A handler that
		// computed a tighter estimate (the rate limiter's next-token time)
		// sets the header first; otherwise fall back to the configured hint.
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", retryAfterValue(s.limits.RetryAfterHint))
		}
	}
	body := ErrorResponse{Code: code, Error: err.Error()}
	var ws *WrongShardError
	if errors.As(err, &ws) {
		body.RingVersion = ws.RingVersion
	}
	s.writeJSON(w, status, body)
}

// checkRingVersion applies the stale-router fence to a mutating request:
// a request stamped with a ring version below the version this shard was
// fenced at is refused with wrong_shard, whatever account it names — the
// sender's whole topology predates the cutover, so its routing cannot be
// trusted. Unstamped requests pass (they still hit the per-account fence
// in the store). Returns nil when the store has no fence capability.
func (s *Server) checkRingVersion(r *http.Request) error {
	h := r.Header.Get(RingVersionHeader)
	if h == "" {
		return nil
	}
	v, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad %s header %q", ErrMalformedRequest, RingVersionHeader, h)
	}
	f, ok := s.store.(Fencer)
	if !ok {
		return nil
	}
	if fenced := f.FenceVersion(); v < fenced {
		return &WrongShardError{RingVersion: fenced}
	}
	return nil
}

// allowAccount applies the per-account rate limit; with no limiter
// configured every request passes.
func (s *Server) allowAccount(w http.ResponseWriter, account string) bool {
	if s.limiter == nil {
		return true
	}
	wait, ok := s.limiter.allow(account)
	if ok {
		return true
	}
	s.shedRate.Inc()
	w.Header().Set("Retry-After", retryAfterValue(wait))
	s.writeError(w, fmt.Errorf("%w: account %q", ErrRateLimited, account))
	return false
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeLimit(w, r, v, 8<<20)
}

func (s *Server) decodeLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrMalformedRequest, err))
		return false
	}
	return true
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	tasks, err := s.store.Tasks(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := make([]TaskDTO, len(tasks))
	for i, t := range tasks {
		out[i] = TaskDTO{ID: t.ID, Name: t.Name, X: t.X, Y: t.Y}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmissionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.allowAccount(w, req.Account) {
		return
	}
	if err := s.checkRingVersion(r); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Time.IsZero() {
		req.Time = time.Now().UTC()
	}
	if err := s.store.Submit(r.Context(), req.Account, req.Task, req.Value, req.Time); err != nil {
		s.writeError(w, err)
		return
	}
	if s.watch {
		s.hub.Feed([]BatchSubmission{{Account: req.Account, Task: req.Task, Value: req.Value, At: req.Time}})
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"status": "accepted"})
}

// MaxBatchItems bounds one POST /v1/reports:batch request. The byte cap
// on the body already bounds the batch; this keeps the admission-gate
// weight arithmetic (and the WAL batch size) in a sane range.
const MaxBatchItems = 4096

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmissionRequest
	if !s.decode(w, r, &req) {
		return
	}
	n := len(req.Reports)
	if n > MaxBatchItems {
		s.writeError(w, fmt.Errorf("%w: batch of %d exceeds %d items", ErrMalformedRequest, n, MaxBatchItems))
		return
	}
	if err := s.checkRingVersion(r); err != nil {
		s.writeError(w, err)
		return
	}
	if n == 0 {
		s.writeJSON(w, http.StatusOK, BatchSubmissionResponse{Results: []BatchItemResult{}})
		return
	}
	// Admission cost is proportional to the work: one gate unit per item,
	// acquired only now that the body is decoded and the count known (the
	// gate clamps a batch heavier than its whole capacity so it can still
	// run alone).
	if s.gate != nil {
		weight := n * weightLight
		if weight > s.limits.MaxConcurrent {
			weight = s.limits.MaxConcurrent
		}
		if err := s.gate.acquire(r.Context(), weight, s.limits.QueueTimeout); err != nil {
			s.shedOverload.Inc()
			s.updateGateGauges()
			s.writeError(w, err)
			return
		}
		s.updateGateGauges()
		defer func() {
			s.gate.release(weight)
			s.updateGateGauges()
		}()
	}
	// Rate limiting charges each account for its item count, all or
	// nothing per account: a blocked account's items are rejected
	// per-item with rate_limited while other accounts' items proceed.
	items := make([]BatchSubmission, n)
	perAccount := make(map[string]int)
	for i, rep := range req.Reports {
		at := rep.Time
		if at.IsZero() {
			at = time.Now().UTC()
		}
		items[i] = BatchSubmission{Account: rep.Account, Task: rep.Task, Value: rep.Value, At: at}
		if rep.Account != "" {
			perAccount[rep.Account]++
		}
	}
	var blocked map[string]error
	if s.limiter != nil {
		var maxWait time.Duration
		for acct, cnt := range perAccount {
			if wait, ok := s.limiter.allowN(acct, cnt); !ok {
				if blocked == nil {
					blocked = make(map[string]error)
				}
				blocked[acct] = fmt.Errorf("%w: account %q", ErrRateLimited, acct)
				s.shedRate.Inc()
				if wait > maxWait {
					maxWait = wait
				}
			}
		}
		if blocked != nil {
			w.Header().Set("Retry-After", retryAfterValue(maxWait))
		}
	}
	results := make([]BatchItemResult, n)
	submitIdx := make([]int, 0, n)
	toSubmit := make([]BatchSubmission, 0, n)
	for i := range items {
		if err := blocked[items[i].Account]; err != nil {
			code, _ := codeForError(err)
			results[i] = BatchItemResult{Status: "rejected", Code: code, Error: err.Error()}
			continue
		}
		submitIdx = append(submitIdx, i)
		toSubmit = append(toSubmit, items[i])
	}
	errs := s.store.SubmitBatch(r.Context(), toSubmit)
	acked := make([]BatchSubmission, 0, len(toSubmit))
	for j, i := range submitIdx {
		if err := errs[j]; err != nil {
			code, _ := codeForError(err)
			results[i] = BatchItemResult{Status: "rejected", Code: code, Error: err.Error()}
		} else {
			results[i] = BatchItemResult{Status: "accepted"}
			acked = append(acked, toSubmit[j])
		}
	}
	if s.watch {
		s.hub.Feed(acked)
	}
	s.writeJSON(w, http.StatusOK, BatchSubmissionResponse{Accepted: len(acked), Rejected: n - len(acked), Results: results})
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	var req FingerprintRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.allowAccount(w, req.Account) {
		return
	}
	if err := s.checkRingVersion(r); err != nil {
		s.writeError(w, err)
		return
	}
	hasRaw := len(req.AccelX) > 0 || len(req.AccelY) > 0 || len(req.AccelZ) > 0 ||
		len(req.GyroX) > 0 || len(req.GyroY) > 0 || len(req.GyroZ) > 0
	if len(req.Features) > 0 {
		if hasRaw {
			s.writeError(w, fmt.Errorf("%w: both raw capture and feature vector present; send exactly one", ErrBadFingerprint))
			return
		}
		if err := s.store.RecordFingerprintFeatures(r.Context(), req.Account, req.Features); err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusCreated, map[string]string{"status": "recorded"})
		return
	}
	rec := mems.Recording{
		SampleRate: req.SampleRate,
		AccelX:     req.AccelX, AccelY: req.AccelY, AccelZ: req.AccelZ,
		GyroX: req.GyroX, GyroY: req.GyroY, GyroZ: req.GyroZ,
	}
	if err := s.store.RecordFingerprint(r.Context(), req.Account, rec); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"status": "recorded"})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req AggregateRequest
	if !s.decode(w, r, &req) {
		return
	}
	res, unc, err := s.store.Aggregate(r.Context(), req.Method)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := AggregateResponse{
		Method: req.Method,
		Meta: ResponseMeta{
			Iterations:     res.Iterations,
			Converged:      res.Converged,
			Degraded:       res.Degraded,
			DegradedReason: res.DegradedReason,
		},
	}
	for j, v := range res.Truths {
		dto := TruthDTO{Task: j}
		if v == v { // not NaN
			dto.Value = v
			dto.Estimated = true
			if j < len(unc) && !math.IsNaN(unc[j]) && !math.IsInf(unc[j], 0) {
				dto.Uncertainty = unc[j]
			}
		}
		resp.Truths = append(resp.Truths, dto)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleDataset exports the full campaign in the mcs JSON schema, so a
// campaign can be archived and re-aggregated offline. A node's own store
// tags the export with a strong ETag naming its exact state and answers
// an If-None-Match that still names it with 304 Not Modified and no body:
// the router's gather revalidates the dataset it already holds instead of
// downloading it again. A router's merged export carries no ETag.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	var ds *mcs.Dataset
	var err error
	if local, ok := s.store.(*LocalStore); ok {
		var tag string
		ds, tag, err = local.datasetTagged(r.Context(), r.Header.Get("If-None-Match"))
		if err == nil {
			w.Header().Set("ETag", tag)
			if ds == nil {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	} else {
		ds, err = s.store.Dataset(r.Context())
	}
	if err != nil {
		// A partial dataset would silently drop accounts from an archived
		// campaign, so a sharded store fails the export instead of
		// degrading it; surface that as the usual coded error.
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := ds.EncodeJSON(w); err != nil {
		s.logf("platform: export dataset: %v", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.store.Stats(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, stats)
}

// handleReplShip serves the follower half of WAL shipping: the primary
// POSTs sequence-numbered, CRC-carrying frames (or a full snapshot) and
// gets back the follower's durable cursor. The body limit is wider than
// the client-facing routes' — a snapshot ship carries a whole campaign.
func (s *Server) handleReplShip(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		s.writeError(w, fmt.Errorf("%w: replication not configured on this node", ErrUnimplemented))
		return
	}
	var req ReplShipRequest
	if !s.decodeLimit(w, r, &req, 256<<20) {
		return
	}
	resp, err := s.repl.ApplyShip(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleReplRole flips the node's replica role (the router's
// promotion/demotion lever).
func (s *Server) handleReplRole(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		s.writeError(w, fmt.Errorf("%w: replication not configured on this node", ErrUnimplemented))
		return
	}
	var req ReplRoleRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.repl.SetRole(r.Context(), req); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.repl.Status())
}

// handleReplStatus reports the node's replication state. Ungated like the
// health endpoints: the router's failover poller must see role/lag
// precisely when the node is busiest.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		s.writeError(w, fmt.Errorf("%w: replication not configured on this node", ErrUnimplemented))
		return
	}
	s.writeJSON(w, http.StatusOK, s.repl.Status())
}

// handleReplExport serves the migration coordinator's WAL tail read:
// decoded durable records by sequence range (see Exporter). 501 on a
// store with no durable history.
func (s *Server) handleReplExport(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.store.(Exporter)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: WAL export not served on this node", ErrUnimplemented))
		return
	}
	var req ExportRequest
	if !s.decode(w, r, &req) {
		return
	}
	batch, err := exp.ExportSince(r.Context(), req.FromSeq, req.MaxRecords)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, batch)
}

// handleFence installs a resharding fence on this shard (see Fencer): the
// named accounts durably refuse writes with wrong_shard from here on.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	f, ok := s.store.(Fencer)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: fencing not served on this node", ErrUnimplemented))
		return
	}
	var req FenceRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := f.Fence(r.Context(), req.RingVersion, req.Accounts); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, FenceResponse{Status: "fenced", FenceVersion: f.FenceVersion()})
}

// handlePurge drops fenced accounts' data (see Fencer.PurgeFenced): the
// post-migration GC the coordinator runs once a reshard is done, also
// available to operators cleaning up after a coordinator that could not
// reach this donor in time.
func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) {
	f, ok := s.store.(Fencer)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: fence purging not served on this node", ErrUnimplemented))
		return
	}
	var req PurgeRequest
	if !s.decode(w, r, &req) {
		return
	}
	n, err := f.PurgeFenced(r.Context(), req.RingVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, PurgeResponse{Status: "purged", Purged: n})
}

// handleHealthz is liveness: the process is up and serving. Always 200 —
// an overloaded server is alive, and restarting it would only make the
// overload worse.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether new traffic should be routed here.
// 503 while draining (shutdown in progress) or while the admission gate is
// saturated (a new arrival would be shed immediately). On a store that
// reports per-shard health (the router), readiness additionally requires
// every shard ready, and the body carries the per-shard breakdown so an
// operator sees which shard flipped the fleet.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Status: "draining"})
		return
	case s.gate != nil && s.gate.saturated():
		s.writeJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Status: "overloaded"})
		return
	}
	hr, ok := s.store.(HealthReporter)
	if !ok {
		s.writeJSON(w, http.StatusOK, ReadyzResponse{Status: "ready"})
		return
	}
	ring := hr.RingStatus()
	shards := hr.ShardHealth(r.Context())
	resp := ReadyzResponse{Status: "ready", Shards: shards,
		RingVersion: ring.Version, Migrating: ring.Migrating}
	status := http.StatusOK
	for _, sh := range shards {
		if !sh.Ready {
			resp.Status = "degraded"
			status = http.StatusServiceUnavailable
			break
		}
	}
	s.writeJSON(w, status, resp)
}

// handleMetricsJSON serves the registry snapshot as JSON: counters,
// gauges, and histogram summaries (count/sum/min/max/p50/p95/p99).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// handleMetricsProm serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logf("platform: write prometheus: %v", err)
	}
}

// TasksFromPOIs builds platform tasks from named coordinates.
func TasksFromPOIs(names []string, xs, ys []float64) ([]mcs.Task, error) {
	if len(names) != len(xs) || len(xs) != len(ys) {
		return nil, errors.New("platform: names/xs/ys length mismatch")
	}
	tasks := make([]mcs.Task, len(names))
	for i := range names {
		tasks[i] = mcs.Task{ID: i, Name: names[i], X: xs[i], Y: ys[i]}
	}
	return tasks, nil
}
