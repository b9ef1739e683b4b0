package platform

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
)

// APIError is a structured platform error decoded from the JSON error
// body. Code is the stable machine-readable contract; callers should
// branch with errors.Is against the platform sentinel errors (APIError
// unwraps to the sentinel its code maps to) or by inspecting Code, never
// by matching Message text.
type APIError struct {
	// Code is the stable wire code (see the Code* constants); empty when
	// the server sent no structured body.
	Code string
	// Message is the human-readable error text.
	Message string
	// Status is the HTTP status code.
	Status int
	// RingVersion accompanies CodeWrongShard: the ring version the
	// refusing shard was fenced at.
	RingVersion uint64
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("HTTP %d (%s)", e.Status, e.Code)
	}
	return fmt.Sprintf("%s (HTTP %d, %s)", e.Message, e.Status, e.Code)
}

// Unwrap maps the wire code back to its typed sentinel, so
// errors.Is(err, platform.ErrUnknownTask) holds across the HTTP boundary.
// A wrong_shard unwraps to the typed *WrongShardError so errors.As
// recovers the ring version the shard advertised.
func (e *APIError) Unwrap() error {
	if e.Code == CodeWrongShard {
		return &WrongShardError{RingVersion: e.RingVersion}
	}
	return sentinelForCode(e.Code)
}

// ClientConfig tunes a Client beyond the defaults.
type ClientConfig struct {
	// HTTPClient performs the requests; nil means a default client with a
	// 10 s timeout.
	HTTPClient *http.Client
	// MaxRetries is the number of additional attempts after the first one
	// fails with a connection error, a 5xx response, a torn response body,
	// or a rate-limit 429 (one carrying Retry-After or the rate_limited
	// code). Other 4xx responses are never retried: the request is wrong,
	// not the network. Zero disables retries.
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry; it doubles
	// per attempt. Zero means 100 ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff. Zero means 2 s. A server-advertised
	// Retry-After longer than the cap is still honored in full: hammering
	// a shedding server early is worse than waiting.
	RetryMaxDelay time.Duration
	// BreakerThreshold opens the client's circuit breaker after this many
	// consecutive transport-level failures (connection errors, 5xx, torn
	// response bodies). While open, calls fail fast with ErrCircuitOpen
	// instead of touching the network; after BreakerCooldown one probe is
	// let through and its outcome closes or reopens the circuit. Zero
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay. Zero means 1 s.
	BreakerCooldown time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay == 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	return c
}

// Client is a typed HTTP client for the platform API, used by cmd/mcsagent
// and integration tests. It targets one or more equivalent endpoints
// (e.g. replicas of the shard router): transport-level failures rotate to
// the next endpoint before the retry loop's next attempt.
type Client struct {
	cfg     ClientConfig
	breaker *breaker // nil when BreakerThreshold == 0

	// ringVersion, when non-zero, is stamped on every request as the
	// X-Ring-Version header — the router's claim about which ring topology
	// it routed with. Shards fenced at a higher version refuse stamped
	// mutations with wrong_shard, which is what stops a router that missed
	// an online-reshard cutover from writing through a stale topology. The
	// sharded store bumps it on every topology install.
	ringVersion atomic.Uint64

	mu      sync.Mutex
	bases   []string   // endpoint rotation, guarded by mu
	baseIdx int        // index of the endpoint in use
	rng     *rand.Rand // jitter source, guarded by mu

	// kept is the last dataset Dataset decoded, with its endpoint and
	// ETag; nil before the first tagged read.
	kept atomic.Pointer[keptDataset]
}

// keptDataset is one decoded GET /v1/dataset answer and the validator
// that names it. Immutable once stored.
type keptDataset struct {
	base, etag string
	ds         *mcs.Dataset
}

// SetRingVersion sets the ring version stamped on subsequent requests
// (0 = no stamp).
func (c *Client) SetRingVersion(v uint64) { c.ringVersion.Store(v) }

// RingVersion returns the currently stamped ring version.
func (c *Client) RingVersion() uint64 { return c.ringVersion.Load() }

// Option configures NewClient.
type Option func(*clientSettings)

type clientSettings struct {
	cfg       ClientConfig
	endpoints []string
}

// WithHTTPClient sets the *http.Client performing requests; the default
// has a 10 s timeout.
func WithHTTPClient(hc *http.Client) Option {
	return func(s *clientSettings) { s.cfg.HTTPClient = hc }
}

// WithEndpoints adds fallback endpoints after NewClient's primary. The
// client uses one endpoint at a time and rotates on transport-level
// failures (connection errors, 5xx, torn bodies).
func WithEndpoints(endpoints ...string) Option {
	return func(s *clientSettings) { s.endpoints = append(s.endpoints, endpoints...) }
}

// WithRetries sets the number of additional attempts after a retryable
// failure (see ClientConfig.MaxRetries).
func WithRetries(n int) Option {
	return func(s *clientSettings) { s.cfg.MaxRetries = n }
}

// WithBackoff sets the retry backoff range (see ClientConfig
// RetryBaseDelay/RetryMaxDelay; zero keeps the default for that bound).
func WithBackoff(base, max time.Duration) Option {
	return func(s *clientSettings) {
		s.cfg.RetryBaseDelay = base
		s.cfg.RetryMaxDelay = max
	}
}

// WithBreaker enables the client circuit breaker (see ClientConfig
// BreakerThreshold/BreakerCooldown).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(s *clientSettings) {
		s.cfg.BreakerThreshold = threshold
		s.cfg.BreakerCooldown = cooldown
	}
}

// WithConfig replaces the whole ClientConfig at once; options applied
// after it refine it field by field.
func WithConfig(cfg ClientConfig) Option {
	return func(s *clientSettings) { s.cfg = cfg }
}

// NewClient targets endpoint (e.g. "http://localhost:8080") — a single
// node or the shard router; the wire API is identical. With no options
// there are no retries and a default HTTP client with a 10 s timeout.
func NewClient(endpoint string, opts ...Option) *Client {
	set := clientSettings{endpoints: []string{endpoint}}
	for _, o := range opts {
		o(&set)
	}
	bases := make([]string, len(set.endpoints))
	for i, e := range set.endpoints {
		bases[i] = strings.TrimRight(e, "/")
	}
	c := &Client{
		bases: bases,
		cfg:   set.cfg.withDefaults(),
		rng:   rand.New(rand.NewSource(jitterSeed())),
	}
	if set.cfg.BreakerThreshold > 0 {
		c.breaker = newBreaker(set.cfg.BreakerThreshold, set.cfg.BreakerCooldown)
	}
	return c
}

// currentBase returns the endpoint in use.
func (c *Client) currentBase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.baseIdx]
}

// rotateBase advances to the next endpoint, but only if the failing
// endpoint is still the current one — concurrent failures on the same
// endpoint rotate once, not once each.
func (c *Client) rotateBase(failed string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bases) > 1 && c.bases[c.baseIdx] == failed {
		c.baseIdx = (c.baseIdx + 1) % len(c.bases)
	}
}

// Endpoints returns the client's endpoint rotation, current first.
func (c *Client) Endpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.bases))
	out = append(out, c.bases[c.baseIdx:]...)
	out = append(out, c.bases[:c.baseIdx]...)
	return out
}

// jitterSeed seeds the backoff-jitter RNG from crypto/rand. A wall-clock
// seed would hand a fleet of agents launched in the same instant identical
// jitter sequences — synchronized retries are exactly what the jitter
// exists to break up. Falls back to the clock only if the system entropy
// source fails.
func jitterSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// BreakerState reports the circuit breaker's current state. Without a
// configured breaker (BreakerThreshold == 0) it is always BreakerClosed.
func (c *Client) BreakerState() BreakerState {
	if c.breaker == nil {
		return BreakerClosed
	}
	return c.breaker.currentState()
}

// Tasks lists the published tasks.
func (c *Client) Tasks(ctx context.Context) ([]TaskDTO, error) {
	var out []TaskDTO
	if err := c.do(ctx, http.MethodGet, "/v1/tasks", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Submit reports one observation. Non-finite values are rejected
// client-side with ErrMalformedRequest — JSON cannot carry NaN/Inf, and
// the server would reject them identically, so the client gives the same
// answer without the round trip.
func (c *Client) Submit(ctx context.Context, req SubmissionRequest) error {
	if math.IsNaN(req.Value) || math.IsInf(req.Value, 0) {
		return fmt.Errorf("%w: non-finite observation value %v", ErrMalformedRequest, req.Value)
	}
	return c.do(ctx, http.MethodPost, "/v1/submissions", req, nil)
}

// SubmitBatch reports many observations in one POST /v1/reports:batch
// call: one round trip and, on a durable platform, one WAL write + one
// fsync for the whole batch. The results are positional. A nil error
// means the envelope was processed — individual items may still have been
// rejected; check each BatchItemResult.Err().
func (c *Client) SubmitBatch(ctx context.Context, reports []SubmissionRequest) ([]BatchItemResult, error) {
	// JSON cannot carry NaN/Inf: screen non-finite values client-side into
	// per-item malformed_request rejections (the server's verdict for
	// them), sending only the finite items, so one bad value cannot fail
	// the whole envelope at the marshal step.
	results := make([]BatchItemResult, len(reports))
	finite := make([]SubmissionRequest, 0, len(reports))
	finiteIdx := make([]int, 0, len(reports))
	for i, r := range reports {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			results[i] = BatchItemResult{
				Status: "rejected",
				Code:   CodeMalformedRequest,
				Error:  fmt.Sprintf("non-finite observation value %v", r.Value),
			}
			continue
		}
		finite = append(finite, r)
		finiteIdx = append(finiteIdx, i)
	}
	if len(finite) == 0 {
		return results, nil
	}
	var out BatchSubmissionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/reports:batch", BatchSubmissionRequest{Reports: finite}, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(finite) {
		return nil, fmt.Errorf("platform client: batch returned %d results for %d reports", len(out.Results), len(finite))
	}
	for j, i := range finiteIdx {
		results[i] = out.Results[j]
	}
	return results, nil
}

// RecordFingerprint uploads a sign-in motion capture.
func (c *Client) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	req := FingerprintRequest{
		Account:    account,
		SampleRate: rec.SampleRate,
		AccelX:     rec.AccelX, AccelY: rec.AccelY, AccelZ: rec.AccelZ,
		GyroX: rec.GyroX, GyroY: rec.GyroY, GyroZ: rec.GyroZ,
	}
	return c.do(ctx, http.MethodPost, "/v1/fingerprints", req, nil)
}

// RecordFeatureFingerprint uploads an already-extracted fingerprint
// feature vector (the replay/import path).
func (c *Client) RecordFeatureFingerprint(ctx context.Context, account string, features []float64) error {
	req := FingerprintRequest{Account: account, Features: features}
	return c.do(ctx, http.MethodPost, "/v1/fingerprints", req, nil)
}

// Aggregate runs an aggregation method on the platform.
func (c *Client) Aggregate(ctx context.Context, method string) (AggregateResponse, error) {
	var out AggregateResponse
	err := c.do(ctx, http.MethodPost, "/v1/aggregate", AggregateRequest{Method: method}, &out)
	return out, err
}

// Metrics fetches the platform's metrics snapshot from /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var out MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// Dataset reads the full campaign snapshot in the mcs JSON schema. It
// revalidates instead of downloading again: the client keeps the last
// dataset it decoded, with its endpoint and ETag, and sends that tag as
// If-None-Match when it next reads the same endpoint. A node answers 304
// Not Modified, with no body, only while its live state is exactly the
// tagged one, and Dataset then returns the kept dataset. A 200 replaces
// the kept dataset, or drops it when the answer carries no ETag (a
// router's merged export).
//
// The returned dataset is shared with every later call that revalidates
// it, so callers must treat it as read-only. The client holds at most one
// decoded dataset.
func (c *Client) Dataset(ctx context.Context) (*mcs.Dataset, error) {
	base := c.currentBase()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/dataset", nil)
	if err != nil {
		return nil, fmt.Errorf("platform client: request: %w", err)
	}
	kept := c.kept.Load()
	if kept != nil && kept.base != base {
		kept = nil // another node's dataset: never revalidated here
	}
	if kept != nil {
		req.Header.Set("If-None-Match", kept.etag)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		c.rotateBase(base)
		return nil, fmt.Errorf("platform client: GET /v1/dataset: %w", err)
	}
	defer drainBody(resp.Body)
	if resp.StatusCode == http.StatusNotModified {
		if kept == nil || resp.Header.Get("ETag") != kept.etag {
			return nil, fmt.Errorf("platform client: GET /v1/dataset: 304 for a tag the client did not send")
		}
		return kept.ds, nil
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("platform client: GET /v1/dataset: %w", decodeAPIError(resp))
	}
	ds, err := mcs.DecodeJSON(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("platform client: %w", err)
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		c.kept.Store(&keptDataset{base: base, etag: tag, ds: ds})
	} else {
		c.kept.Store(nil)
	}
	return ds, nil
}

// Stats fetches store counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Ready probes GET /readyz once — no retry, no circuit breaker: a health
// probe reports, it does not heal. A decodable answer is returned with a
// nil error whatever its status ("ready", "draining", "overloaded",
// "degraded" — with the per-shard breakdown on a router); the error is
// non-nil only when the endpoint is unreachable or the body torn.
func (c *Client) Ready(ctx context.Context) (ReadyzResponse, error) {
	base := c.currentBase()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return ReadyzResponse{}, fmt.Errorf("platform client: request: %w", err)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		c.rotateBase(base)
		return ReadyzResponse{}, fmt.Errorf("platform client: GET /readyz: %w", err)
	}
	defer drainBody(resp.Body)
	var out ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return ReadyzResponse{}, fmt.Errorf("platform client: GET /readyz: decode: %w", err)
	}
	return out, nil
}

// ReplShip pushes WAL frames (or a snapshot) to a replica follower and
// returns its durable cursor. Primaries use it; it is exported so tests
// and operational tooling can drive the protocol directly.
func (c *Client) ReplShip(ctx context.Context, req ReplShipRequest) (ReplShipResponse, error) {
	var out ReplShipResponse
	err := c.do(ctx, http.MethodPost, "/v1/repl/frames", req, &out)
	return out, err
}

// ReplStatus reads a node's replication state (role, epoch, durable
// sequence number, follower cursors).
func (c *Client) ReplStatus(ctx context.Context) (ReplStatusResponse, error) {
	var out ReplStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/repl/status", nil, &out)
	return out, err
}

// ReplSetRole flips a node's replica role — the router's failover lever.
// The response is the node's post-flip status.
func (c *Client) ReplSetRole(ctx context.Context, req ReplRoleRequest) (ReplStatusResponse, error) {
	var out ReplStatusResponse
	err := c.do(ctx, http.MethodPost, "/v1/repl/role", req, &out)
	return out, err
}

// ReplExport reads a node's decoded WAL records after req.FromSeq — the
// migration coordinator's catch-up tail during an online reshard.
func (c *Client) ReplExport(ctx context.Context, req ExportRequest) (ExportBatch, error) {
	var out ExportBatch
	err := c.do(ctx, http.MethodPost, "/v1/repl/export", req, &out)
	return out, err
}

// Fence tells a node to refuse further mutations for the given accounts
// with wrong_shard at the given ring version — the cutover step of an
// online reshard. Idempotent: re-fencing the same accounts at the same
// (or lower) version is a no-op.
func (c *Client) Fence(ctx context.Context, req FenceRequest) (FenceResponse, error) {
	var out FenceResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/fence", req, &out)
	return out, err
}

// PurgeFenced tells a node to drop the data of every account fenced at or
// below the given ring version, keeping the fence — the post-migration GC
// (see Fencer.PurgeFenced). Idempotent: a repeat purge finds nothing to drop.
func (c *Client) PurgeFenced(ctx context.Context, req PurgeRequest) (PurgeResponse, error) {
	var out PurgeResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/purge", req, &out)
	return out, err
}

// attemptResult classifies one request attempt for the retry loop and the
// circuit breaker.
type attemptResult struct {
	err error
	// retryable: connection errors, 5xx, torn response bodies, and
	// rate-limit 429s (which carry a Retry-After or the rate_limited
	// code). Other 4xx are never retried: the request is wrong, not the
	// network.
	retryable bool
	// retryAfter is the server-advertised minimum wait (from the
	// Retry-After header), honored in full before the next attempt.
	retryAfter time.Duration
	// transportFailure marks failures that count toward the breaker:
	// connection errors, 5xx, torn bodies. Any decoded HTTP response < 500
	// proves the server alive, so 4xx (even 429) is breaker-success.
	transportFailure bool
}

// do performs one API call with bounded retry: connection errors, 5xx
// responses, and torn bodies back off exponentially (with jitter) up to
// MaxRetries extra attempts; rate-limit 429s retry no earlier than the
// advertised Retry-After; other 4xx responses return immediately as
// *APIError. The circuit breaker, when configured, is consulted before
// and updated after every attempt.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("platform client: marshal: %w", err)
		}
		payload = buf
	}

	for attempt := 0; ; attempt++ {
		if c.breaker != nil {
			if err := c.breaker.allow(); err != nil {
				return fmt.Errorf("platform client: %s %s: %w", method, path, err)
			}
		}
		base := c.currentBase()
		res := c.attempt(ctx, base, method, path, payload, out)
		if c.breaker != nil {
			c.breaker.record(!res.transportFailure)
		}
		if res.transportFailure {
			// The endpoint itself failed (connection error, 5xx, torn
			// body); with fallback endpoints configured the next attempt
			// goes elsewhere.
			c.rotateBase(base)
		}
		if res.err == nil {
			return nil
		}
		lastErr := fmt.Errorf("platform client: %s %s: %w", method, path, res.err)
		if !res.retryable || attempt >= c.cfg.MaxRetries {
			return lastErr
		}
		if err := c.sleep(ctx, attempt, res.retryAfter); err != nil {
			return fmt.Errorf("platform client: %s %s: retry aborted: %w", method, path, err)
		}
	}
}

// attempt performs a single request against base.
func (c *Client) attempt(ctx context.Context, base, method, path string, payload []byte, out any) attemptResult {
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, reader)
	if err != nil {
		return attemptResult{err: err}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if v := c.ringVersion.Load(); v != 0 {
		req.Header.Set(RingVersionHeader, strconv.FormatUint(v, 10))
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Connection-level failure. Retrying a cancelled context is
		// pointless, so surface it immediately.
		if ctx.Err() != nil {
			return attemptResult{err: err, transportFailure: true}
		}
		return attemptResult{err: err, retryable: true, transportFailure: true}
	}
	// Every branch below — success, decode failure, the Retry-After and
	// torn-body paths — leaves resp.Body to this one deferred drain+close,
	// so a retry loop never strands a connection in the transport pool.
	defer drainBody(resp.Body)
	if resp.StatusCode >= 400 {
		retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		apiErr := decodeAPIError(resp)
		res := attemptResult{err: apiErr, retryAfter: retryAfter}
		switch {
		case resp.StatusCode == http.StatusNotImplemented:
			// A deliberate "this node does not serve that" answer
			// (unimplemented wire code): the server is alive and the answer
			// will not change, so neither retry nor breaker penalty.
		case isWrongShard(apiErr):
			// The shard deliberately refused: an online reshard moved the
			// account away (or our ring-version stamp is stale). Retrying the
			// same node can never succeed — the routing layer above must
			// refresh its topology and re-route. The node is alive and
			// answering, so no breaker penalty either.
		case resp.StatusCode >= 500:
			res.retryable = true
			res.transportFailure = true
		case resp.StatusCode == http.StatusTooManyRequests:
			// Retry a 429 only when it is a shed-load signal (an
			// advertised wait or the rate_limited code) — a semantic 429
			// like account_cap_reached will not clear by waiting.
			var ae *APIError
			if errors.As(apiErr, &ae) && (retryAfter > 0 || ae.Code == CodeRateLimited) {
				res.retryable = true
			}
		}
		return res
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A body that fails to decode on a success status is a torn
			// transfer (truncated or corrupted mid-flight), not a wrong
			// request: retryable, and a transport failure for the breaker.
			return attemptResult{err: fmt.Errorf("decode: %w", err), retryable: true, transportFailure: true}
		}
	}
	return attemptResult{}
}

// drainDiscardLimit caps how many unread body bytes a drain will consume
// to make the connection reusable. Past that, finishing the read costs
// more than a fresh connection: close and let the transport re-dial.
const drainDiscardLimit = 256 << 10

// drainBody discards the (bounded) remainder of a response body and
// closes it. Called for every response not handed back to the caller:
// an undrained body prevents the transport from reusing the connection,
// which under retry churn degrades the whole pool.
func drainBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainDiscardLimit))
	_ = body.Close()
}

// parseRetryAfter reads a Retry-After header value: either delta-seconds
// or an HTTP date. Returns 0 when absent or unparseable.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// decodeAPIError builds the *APIError for a >= 400 response, consuming
// the body.
func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
		apiErr.Code = body.Code
		apiErr.Message = body.Error
		apiErr.RingVersion = body.RingVersion
	}
	return apiErr
}

// isWrongShard reports whether err is a wrong_shard refusal.
func isWrongShard(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeWrongShard
}

// sleep blocks for the attempt's backoff delay (exponential from
// RetryBaseDelay, capped at RetryMaxDelay, jittered to 50–100% of the
// nominal value so synchronized clients spread out) or until ctx ends,
// returning the context error in that case. A server-advertised minimum
// (Retry-After) is honored in full, uncapped and unjittered downward:
// retrying a shedding server early only deepens the overload.
func (c *Client) sleep(ctx context.Context, attempt int, minDelay time.Duration) error {
	delay := c.cfg.RetryBaseDelay << uint(attempt)
	if delay > c.cfg.RetryMaxDelay || delay <= 0 {
		delay = c.cfg.RetryMaxDelay
	}
	c.mu.Lock()
	frac := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	delay = time.Duration(float64(delay) * frac)
	if delay < minDelay {
		delay = minDelay
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
