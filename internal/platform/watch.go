package platform

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WatchOptions tunes Client.Watch.
type WatchOptions struct {
	// FromSeq resumes the stream after a known sequence number (sent as
	// the SSE Last-Event-ID). Zero starts with a full snapshot of the
	// current estimates.
	FromSeq uint64
	// Reconnect keeps the watch alive across connection failures: the
	// watcher redials with exponential backoff (the client's retry delays)
	// and resumes from the last sequence number it saw, so a blip costs at
	// most a re-delivery of the tasks that changed meanwhile — latest-wins
	// semantics make that idempotent. Without Reconnect the stream ends on
	// the first error.
	Reconnect bool
	// Buffer is the capacity of the Updates channel; zero means 64. When
	// the consumer falls behind, the watcher blocks reading the socket —
	// client-side backpressure — and the server coalesces on its side.
	Buffer int
}

// Watcher is a live subscription to the platform's truth stream. Read
// Updates until it closes, then check Err.
type Watcher struct {
	updates chan TruthUpdate

	mu      sync.Mutex
	err     error
	lastSeq uint64
}

// Updates delivers on-change truth estimates in arrival order. The
// channel closes when the watch ends (context cancelled, terminal error,
// or server gone with Reconnect disabled).
func (w *Watcher) Updates() <-chan TruthUpdate { return w.updates }

// Err reports why the watch ended; nil after a clean context cancel.
// Valid once Updates is closed.
func (w *Watcher) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// LastSeq returns the last sequence number received, usable as FromSeq
// for a later manual resume.
func (w *Watcher) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// Watch opens a server-push subscription to GET /v1/truths:watch. The
// first connection is made synchronously — a refused or shed subscribe
// surfaces as the returned error (errors.Is(err, ErrOverloaded) when the
// server's subscriber cap is hit) — and subsequent delivery runs on a
// background goroutine until ctx ends or the stream fails terminally.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) (*Watcher, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	resp, err := c.watchConnect(ctx, opts.FromSeq)
	if err != nil {
		return nil, err
	}
	w := &Watcher{updates: make(chan TruthUpdate, opts.Buffer), lastSeq: opts.FromSeq}
	go w.run(ctx, c, resp, opts)
	return w, nil
}

// watchConnect dials one watch stream, resuming after fromSeq.
func (c *Client) watchConnect(ctx context.Context, fromSeq uint64) (*http.Response, error) {
	base := c.currentBase()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/truths:watch", nil)
	if err != nil {
		return nil, fmt.Errorf("platform client: watch request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if fromSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(fromSeq, 10))
	}
	resp, err := c.streamHTTPClient().Do(req)
	if err != nil {
		c.rotateBase(base)
		return nil, fmt.Errorf("platform client: GET /v1/truths:watch: %w", err)
	}
	if resp.StatusCode >= 400 {
		defer drainBody(resp.Body)
		err := decodeAPIError(resp)
		// A server that doesn't serve the watch route at all (older
		// version, or a stripped-down node behind a proxy) answers 404/501
		// with no decodable wire code. Brand those ErrUnimplemented so the
		// caller gets a typed "this endpoint isn't here" instead of a bare
		// status, and Reconnect knows not to redial an answer that will
		// never change.
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == "" &&
			(ae.Status == http.StatusNotFound || ae.Status == http.StatusNotImplemented) {
			ae.Code = CodeUnimplemented
		}
		return nil, fmt.Errorf("platform client: GET /v1/truths:watch: %w", err)
	}
	return resp, nil
}

// streamHTTPClient returns an HTTP client suitable for a long-lived
// stream: the configured client's transport (the shared pooled one
// unless the caller named its own) without its overall request timeout,
// which would otherwise kill every subscription at the timeout mark (the
// default client carries 10s).
func (c *Client) streamHTTPClient() *http.Client {
	base := c.cfg.HTTPClient
	if base.Timeout == 0 {
		return base
	}
	return &http.Client{
		Transport:     base.Transport,
		CheckRedirect: base.CheckRedirect,
		Jar:           base.Jar,
	}
}

// run consumes stream connections until the watch ends.
func (w *Watcher) run(ctx context.Context, c *Client, resp *http.Response, opts WatchOptions) {
	defer close(w.updates)
	attempt := 0
	for {
		err := w.consume(ctx, resp.Body)
		_ = resp.Body.Close()
		if ctx.Err() != nil {
			return // clean end: the caller cancelled
		}
		if !opts.Reconnect {
			w.setErr(err)
			return
		}
		// Redial with backoff, resuming after the last seq we saw. The
		// attempt counter resets on any successful connection, so a
		// healthy stream that blips reconnects fast.
		for {
			if err := c.sleep(ctx, attempt, 0); err != nil {
				return
			}
			if attempt < 30 { // cap the shift, not the retrying
				attempt++
			}
			next, err := c.watchConnect(ctx, w.LastSeq())
			if err == nil {
				resp = next
				attempt = 0
				break
			}
			if errors.Is(err, ErrUnimplemented) {
				// The endpoint is deliberately absent here; redialing
				// cannot change the answer. End the watch with the typed
				// error instead of retrying forever.
				w.setErr(err)
				return
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
}

func (w *Watcher) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// consume parses SSE events off one connection body until it errors or
// the context ends, forwarding truth updates to the Updates channel.
func (w *Watcher) consume(ctx context.Context, body io.Reader) error {
	// Close/ctx handling: the HTTP request carries ctx, so the transport
	// closes the body when ctx ends and the blocked Read returns.
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data strings.Builder
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 && (event == "" || event == "truth") {
				var u TruthUpdate
				if err := json.Unmarshal([]byte(data.String()), &u); err == nil {
					w.mu.Lock()
					if u.Seq > w.lastSeq {
						w.lastSeq = u.Seq
					}
					w.mu.Unlock()
					select {
					case w.updates <- u:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
			data.Reset()
			event = ""
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case strings.HasPrefix(line, "id:"):
			// The sequence number also rides inside the JSON payload, and
			// lastSeq must only advance once the event is delivered to the
			// consumer — advancing it here would let a crash between this
			// line and delivery skip the event on resume.
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("platform client: watch stream: %w", err)
	}
	return io.EOF // orderly server close
}

// Next waits for the next update, giving up after d. ok is false on
// timeout or when the stream has ended.
func (w *Watcher) Next(d time.Duration) (TruthUpdate, bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case u, ok := <-w.updates:
		return u, ok
	case <-t.C:
		return TruthUpdate{}, false
	}
}
