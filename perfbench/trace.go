package main

import (
	"context"
	"encoding/json"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sybiltd/internal/wal"
)

// The trace is recorded outside-in: every span comes from a wrapper this
// package puts around a layer boundary of the unmodified platform — the
// load generator's call, the router's and each node's HTTP handler, the
// router-to-shard and primary-to-follower transports, and each node's WAL
// filesystem. Spans of one request share the id the load generator mints;
// it crosses each HTTP hop in requestHeader.
type layer uint8

// Layers in attribution order: where spans of one request overlap, time
// goes to the later (deeper) layer, so the exclusive times of a request
// add up to its client-observed latency.
const (
	layerClient   layer = iota // load generator: encode, send, receive, decode
	layerRouter                // router handler: admission, routing, merge, aggregation
	layerHop                   // router-to-shard round trip
	layerShard                 // shard primary handler
	layerShip                  // primary-to-follower frame shipment in flight
	layerSnapshot              // WAL compaction writing a snapshot
	layerFsync                 // WAL fsync in flight
	numLayers
)

const requestHeader = "X-Perfbench-Request"

type span struct {
	layer      layer
	node       int // fleet node index; -1 for the router and the client
	req        uint64
	start, end int64 // nanoseconds since the recorder's epoch
	bytes      int64 // response bytes, for transport spans
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch   time.Time
	nextReq atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now reads the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops every span recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

type requestKey struct{}

func withRequest(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, requestKey{}, id)
}

func requestOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(requestKey{}).(uint64)
	return id
}

// transport stamps the request id from the context on outgoing requests
// and, for layers other than layerClient, records the round trip until
// the response body is closed.
func (r *recorder) transport(l layer, node int) http.RoundTripper {
	return &tracingTransport{rec: r, base: http.DefaultTransport, layer: l, node: node}
}

type tracingTransport struct {
	rec   *recorder
	base  http.RoundTripper
	layer layer
	node  int
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := requestOf(req.Context())
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	}
	if t.layer == layerClient {
		return t.base.RoundTrip(req)
	}
	s := span{layer: t.layer, node: t.node, req: id, start: t.rec.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// timedBody ends its transport span when the caller finishes with the
// body: at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	done atomic.Bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	atomic.AddInt64(&b.s.bytes, int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done.CompareAndSwap(false, true) {
		s := b.s
		s.bytes = atomic.LoadInt64(&b.s.bytes)
		s.end = b.rec.now()
		b.rec.add(s)
	}
}

// handler records a span for every request carrying a request id, and for
// every shipment a follower receives. The router handler also puts the id
// into the request context, where the hop transport finds it.
func (r *recorder) handler(l layer, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseUint(req.Header.Get(requestHeader), 10, 64)
		lay := l
		switch {
		case req.URL.Path == "/v1/repl/frames":
			lay = layerShip
		case id == 0:
			h.ServeHTTP(w, req) // health probes and status polls
			return
		case l == layerRouter:
			req = req.WithContext(withRequest(req.Context(), id))
		}
		s := span{layer: lay, node: node, req: id, start: r.now()}
		h.ServeHTTP(w, req)
		s.end = r.now()
		if lay == layerShip {
			// A follower's side of a shipment: kept apart from the
			// primary's in-flight ship spans by a negative node.
			s.node = -2 - node
		}
		r.add(s)
	})
}

// fs wraps the real filesystem of node idx: every WAL fsync and every
// snapshot write becomes a span.
func (r *recorder) fs(node int) wal.FS {
	return tracedFS{FS: wal.OS(), rec: r, node: node}
}

type tracedFS struct {
	wal.FS
	rec  *recorder
	node int
}

func (f tracedFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	start := f.rec.now()
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	snapshot := filepath.Base(name) != "wal.log" && flag&os.O_WRONLY != 0
	return &tracedFile{File: file, fs: f, snapshot: snapshot, start: start}, nil
}

type tracedFile struct {
	wal.File
	fs       tracedFS
	snapshot bool
	start    int64
}

func (t *tracedFile) Sync() error {
	start := t.fs.rec.now()
	err := t.File.Sync()
	if !t.snapshot {
		t.fs.rec.add(span{layer: layerFsync, node: t.fs.node, start: start, end: t.fs.rec.now()})
	}
	return err
}

func (t *tracedFile) Close() error {
	err := t.File.Close()
	if t.snapshot {
		t.fs.rec.add(span{layer: layerSnapshot, node: t.fs.node, start: t.start, end: t.fs.rec.now()})
	}
	return err
}

// breakdown is the trace reduced to per-operation layer costs.
type breakdown struct {
	ops        int
	exclusive  [numLayers]int64 // summed over ops
	hops       int
	hopBytes   int64
	fsyncs     int // primary WAL fsyncs
	fsyncNanos int64
	ships      int // frame shipments the primaries sent
	applies    int // shipments the followers served
	applyNanos int64
}

// attribute splits every client span into exclusive layer times. A
// request's own router, hop and shard spans nest by construction; the
// shared activity of the shard's node — shipments, snapshots and fsyncs —
// counts for the part that overlaps the request's shard span, since the
// request waits on it there whether or not it started it.
func attribute(spans []span) breakdown {
	var b breakdown
	byReq := make(map[uint64][]span)
	nodeTimes := make(map[[2]int]*nodeSpans) // (layer, node) -> shared activity
	shared := func(s span) {
		k := [2]int{int(s.layer), s.node}
		if nodeTimes[k] == nil {
			nodeTimes[k] = &nodeSpans{}
		}
		nodeTimes[k].spans = append(nodeTimes[k].spans, s)
	}
	var clients []span
	for _, s := range spans {
		switch s.layer {
		case layerClient:
			clients = append(clients, s)
		case layerRouter, layerHop, layerShard:
			if s.req != 0 {
				byReq[s.req] = append(byReq[s.req], s)
			}
		case layerShip:
			if s.node <= -2 {
				b.applies++
				b.applyNanos += s.end - s.start
				continue
			}
			b.ships++
			shared(s)
		case layerSnapshot, layerFsync:
			if s.layer == layerFsync && s.node%numReplicas == 0 {
				b.fsyncs++
				b.fsyncNanos += s.end - s.start
			}
			shared(s)
		}
	}
	for _, ns := range nodeTimes {
		ns.sort()
	}
	var parts []span
	for _, c := range clients {
		parts = append(parts[:0], c)
		for _, s := range byReq[c.req] {
			parts = append(parts, s)
			if s.layer == layerHop {
				b.hops++
				b.hopBytes += s.bytes
			}
			if s.layer != layerShard {
				continue
			}
			for _, l := range []layer{layerShip, layerSnapshot, layerFsync} {
				if ns := nodeTimes[[2]int{int(l), s.node}]; ns != nil {
					parts = ns.appendOverlaps(parts, s)
				}
			}
		}
		exclusive(c, parts, &b.exclusive)
		b.ops++
	}
	return b
}

// nodeSpans is one kind of shared activity on one node: spans sorted by
// start, and the longest of them.
type nodeSpans struct {
	spans   []span
	longest int64
}

func (ns *nodeSpans) sort() {
	sort.Slice(ns.spans, func(i, j int) bool { return ns.spans[i].start < ns.spans[j].start })
	for _, s := range ns.spans {
		ns.longest = max(ns.longest, s.end-s.start)
	}
}

// appendOverlaps appends the parts of ns that overlap within, clipped to
// it. No span starts earlier than within.start-longest and still reaches
// within, so the search starts there.
func (ns *nodeSpans) appendOverlaps(dst []span, within span) []span {
	ts := ns.spans
	i := sort.Search(len(ts), func(i int) bool { return ts[i].start >= within.start-ns.longest })
	for ; i < len(ts) && ts[i].start < within.end; i++ {
		s := ts[i]
		if s.end <= within.start {
			continue
		}
		s.start = max(s.start, within.start)
		s.end = min(s.end, within.end)
		dst = append(dst, s)
	}
	return dst
}

// exclusive sweeps root's interval and credits each instant to the
// deepest layer active in it.
func exclusive(root span, parts []span, out *[numLayers]int64) {
	cuts := make([]int64, 0, 2*len(parts))
	for _, p := range parts {
		cuts = append(cuts, max(p.start, root.start), min(p.end, root.end))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		deepest := layerClient
		for _, p := range parts {
			if p.start <= lo && p.end >= hi && p.layer > deepest {
				deepest = p.layer
			}
		}
		out[deepest] += hi - lo
	}
}

// writeChromeTrace dumps spans in the Chrome trace-event format (open in
// Perfetto or chrome://tracing): one process per node, one thread per
// request.
func writeChromeTrace(path string, spans []span) error {
	names := [numLayers]string{"client", "router", "hop", "shard", "ship", "snapshot", "fsync"}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  uint64  `json:"tid"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: names[s.layer], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: s.node, Tid: s.req}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
