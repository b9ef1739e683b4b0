package platform

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
)

// newStreamServer builds an isolated-registry server over n tasks plus an
// httptest server in front of it, registering cleanup for both.
func newStreamServer(t *testing.T, n int, opts ServerOptions) (*LocalStore, *Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Registry = reg
	store := NewLocalStore(testTasks(n))
	server := NewServerWithOptions(store, opts)
	ts := httptest.NewServer(server)
	t.Cleanup(func() {
		ts.Close()
		server.Close()
	})
	return store, server, ts, reg
}

// TestWatchReceivesUpdateAfterSubmit is the end-to-end acceptance check:
// a live GET /v1/truths:watch subscriber receives an on-change truth
// update after a plain POST /v1/submissions, over real HTTP, without
// anyone calling /v1/aggregate.
func TestWatchReceivesUpdateAfterSubmit(t *testing.T) {
	_, _, ts, _ := newStreamServer(t, 3, ServerOptions{})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 1, Value: -61.5}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	u, ok := w.Next(5 * time.Second)
	if !ok {
		t.Fatal("no truth update pushed after submit")
	}
	if u.Task != 1 || u.Value != -61.5 {
		t.Fatalf("update = %+v, want task 1 value -61.5", u)
	}
	if u.Seq == 0 {
		t.Fatalf("update carries no sequence number: %+v", u)
	}
}

// TestWatchReceivesUpdateAfterBatch: the batch ingest path must feed the
// stream too, and only the acknowledged subset of a mixed batch counts.
func TestWatchReceivesUpdateAfterBatch(t *testing.T) {
	_, _, ts, _ := newStreamServer(t, 4, ServerOptions{})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	results, err := client.SubmitBatch(ctx, []SubmissionRequest{
		{Account: "ana", Task: 2, Value: -70},
		{Account: "bo", Task: 99, Value: -70}, // rejected: unknown task
		{Account: "cy", Task: 2, Value: -72},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if results[1].Err() == nil {
		t.Fatal("expected item 1 to be rejected")
	}
	u, ok := w.Next(5 * time.Second)
	if !ok {
		t.Fatal("no truth update pushed after batch submit")
	}
	if u.Task != 2 {
		t.Fatalf("update for task %d, want 2", u.Task)
	}
	// Two accepted reports, -70 and -72: the estimate lies between them.
	if u.Value < -72 || u.Value > -70 {
		t.Fatalf("estimate %v outside the reported range [-72, -70]", u.Value)
	}
}

// TestFlusherReachableBehindInstrumentedMux is the statusRecorder
// regression test: a handler registered through the instrumented handle()
// wrapper must still be able to stream — both via the legacy
// `w.(http.Flusher)` assertion and via http.ResponseController. Before
// the fix, statusRecorder embedded only the ResponseWriter interface, so
// the underlying Flusher was unreachable and every streaming response
// buffered until the handler returned.
func TestFlusherReachableBehindInstrumentedMux(t *testing.T) {
	store := NewLocalStore(testTasks(1))
	server := NewServerWithOptions(store, ServerOptions{Registry: obs.NewRegistry()})
	defer server.Close()

	var asserted atomic.Bool
	firstChunk := make(chan struct{})
	release := make(chan struct{})
	server.handle("GET /flushprobe", weightLight, func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		asserted.Store(ok)
		if !ok {
			return
		}
		io.WriteString(w, "first\n")
		f.Flush()
		close(firstChunk)
		<-release
		io.WriteString(w, "second\n")
	})
	ts := httptest.NewServer(server)
	defer ts.Close()
	defer close(release)

	resp, err := http.Get(ts.URL + "/flushprobe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The first chunk must arrive while the handler is still running —
	// that is what "can flush" means.
	select {
	case <-firstChunk:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never flushed its first chunk")
	}
	if !asserted.Load() {
		t.Fatal("w.(http.Flusher) failed behind the instrumented mux")
	}
	buf := bufio.NewReader(resp.Body)
	line, err := buf.ReadString('\n')
	if err != nil || line != "first\n" {
		t.Fatalf("first streamed chunk = %q, %v", line, err)
	}
}

// TestWatchOutlivesRequestTimeout pins the timeout exemption: with a
// 50ms per-request deadline and a 150ms server write timeout, a watch
// subscription must keep delivering long after both expired, while normal
// routes still get the deadline attached to their context.
func TestWatchOutlivesRequestTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewLocalStore(testTasks(2))
	server := NewServerWithOptions(store, ServerOptions{
		Registry: reg,
		Limits:   ServerLimits{RequestTimeout: 50 * time.Millisecond},
	})
	defer server.Close()
	var deadlineSet atomic.Bool
	server.handle("GET /deadline-probe", weightLight, func(w http.ResponseWriter, r *http.Request) {
		_, ok := r.Context().Deadline()
		deadlineSet.Store(ok)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewUnstartedServer(server)
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Start()
	defer ts.Close()

	// Normal routes still carry the request deadline.
	resp, err := http.Get(ts.URL + "/deadline-probe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !deadlineSet.Load() {
		t.Fatal("normal route lost its request deadline")
	}

	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	// Sit out both the request timeout (50ms) and the server write
	// timeout (150ms) several times over, then prove the stream is alive.
	time.Sleep(600 * time.Millisecond)
	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -55}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, ok := w.Next(5 * time.Second); !ok {
		t.Fatal("subscription died before outliving the request/write timeouts")
	}
}

// TestStreamCoalescingSlowSubscriber pins latest-wins drop-intermediate
// semantics at the hub: a subscriber that never drains sees intermediate
// values coalesced away (dropped counter > 0) and, on its eventual drain,
// exactly the latest value — while a fast subscriber is fed every step
// without ever blocking on the slow one.
func TestStreamCoalescingSlowSubscriber(t *testing.T) {
	reg := obs.NewRegistry()
	hub, err := NewStreamHub(2, StreamConfig{Epsilon: 1e-12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	slow, err := hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}

	const steps = 50
	var lastVal float64
	for i := 0; i < steps; i++ {
		lastVal = float64(-100 + i)
		hub.Feed([]BatchSubmission{{Account: fmt.Sprintf("a%d", i), Task: 0, Value: lastVal}})
		// The fast subscriber drains continuously and must see progress
		// without waiting on the slow one.
		select {
		case <-fast.Notify():
			fast.Take()
		case <-time.After(2 * time.Second):
			t.Fatalf("fast subscriber starved at step %d while slow subscriber stalled", i)
		}
	}
	// Wait for the hub loop to settle (the estimate runs async).
	deadline := time.Now().Add(5 * time.Second)
	var got []TruthUpdate
	for time.Now().Before(deadline) {
		if got = slow.Take(); len(got) > 0 {
			// The pending buffer holds at most one update per task.
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(got) != 1 {
		t.Fatalf("slow subscriber drained %d pending updates, want exactly 1 (latest-wins per task)", len(got))
	}
	if got[0].Task != 0 {
		t.Fatalf("pending update for task %d, want 0", got[0].Task)
	}
	if slow.Dropped() == 0 {
		t.Fatal("slow subscriber reports zero dropped updates; intermediates must be coalesced")
	}
	if reg.Counter("stream.dropped_updates").Value() == 0 {
		t.Fatal("hub dropped-updates counter is zero")
	}
	// The estimate moves monotonically toward the last reported value as
	// reports accumulate; the slow drain must carry a late estimate, not
	// the first one.
	if got[0].Value == -100 {
		t.Fatalf("slow subscriber got the first estimate %v; wanted a later, coalesced one", got[0].Value)
	}
}

// smallWriteBufListener shrinks the kernel send buffer of every accepted
// connection so a non-reading peer exerts backpressure after ~100 small
// SSE events instead of after megabytes of loopback buffering.
type smallWriteBufListener struct{ net.Listener }

func (l smallWriteBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(2048)
	}
	return c, err
}

// TestStreamSlowSubscriberOverHTTP drives the acceptance scenario over a
// real socket: one subscriber never reads its connection while another
// consumes normally. The server must keep pushing to the fast subscriber
// and record dropped (coalesced) updates for the slow one.
func TestStreamSlowSubscriberOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewLocalStore(testTasks(1))
	server := NewServerWithOptions(store, ServerOptions{
		Registry: reg,
		Stream:   StreamConfig{Epsilon: 1e-12, WriteWindow: 500 * time.Millisecond},
	})
	defer server.Close()
	ts := httptest.NewUnstartedServer(server)
	ts.Listener = smallWriteBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()

	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Slow subscriber: a raw socket with a tiny receive buffer that sends
	// the watch request and then never reads a byte. Combined with the
	// shrunken server send buffer, the handler's writes block after a
	// bounded number of events.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(2048)
	}
	fmt.Fprintf(conn, "GET /v1/truths:watch HTTP/1.1\r\nHost: slow\r\nAccept: text/event-stream\r\n\r\n")

	fast, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	// Submit until the hub has coalesced at least one update away for the
	// stalled subscriber. Each submit comes from a fresh account, so each
	// genuinely moves the estimate.
	dropped := reg.Counter("stream.dropped_updates")
	var lastSeq uint64
	for i := 0; i < 5000 && dropped.Value() == 0; i++ {
		if err := client.Submit(ctx, SubmissionRequest{
			Account: fmt.Sprintf("acct-%04d", i), Task: 0, Value: float64(i % 97),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Drain the fast subscriber opportunistically (non-blocking); it
		// must keep receiving while the slow one stalls.
		for drained := false; !drained; {
			select {
			case u := <-fast.Updates():
				lastSeq = u.Seq
			default:
				drained = true
			}
		}
	}
	if dropped.Value() == 0 {
		t.Fatal("no dropped updates recorded for the stalled subscriber")
	}
	// The fast subscriber keeps making progress after drops occurred.
	if err := client.Submit(ctx, SubmissionRequest{Account: "final", Task: 0, Value: 1000}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		u, ok := fast.Next(time.Second)
		if ok && u.Seq > lastSeq {
			return // progress proven
		}
	}
	t.Fatal("fast subscriber stopped receiving after the slow subscriber stalled")
}

// TestWatchResume: a subscriber that reconnects with its last sequence
// number receives the tasks that changed while it was away — and nothing
// it has already seen when nothing changed.
func TestWatchResume(t *testing.T) {
	_, server, ts, _ := newStreamServer(t, 4, ServerOptions{})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -10}); err != nil {
		t.Fatal(err)
	}
	u, ok := w.Next(5 * time.Second)
	if !ok {
		t.Fatal("no initial update")
	}
	seen := u.Seq

	// Disconnect, change a different task while away, reconnect resuming.
	cancel()
	for range w.Updates() {
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := client.Submit(ctx2, SubmissionRequest{Account: "bo", Task: 3, Value: -20}); err != nil {
		t.Fatal(err)
	}
	w2, err := client.Watch(ctx2, WatchOptions{FromSeq: seen})
	if err != nil {
		t.Fatal(err)
	}
	u2, ok := w2.Next(5 * time.Second)
	if !ok {
		t.Fatal("resume delivered nothing")
	}
	if u2.Task != 3 || u2.Seq <= seen {
		t.Fatalf("resume delivered %+v, want the task-3 change after seq %d", u2, seen)
	}
	if u3, ok := w2.Next(300 * time.Millisecond); ok {
		t.Fatalf("resume re-delivered already-seen state: %+v", u3)
	}
	_ = server
}

// TestWatchMaxSubscribers: the cap sheds new subscribers with the
// overloaded wire code, and closing a subscription frees a slot.
func TestWatchMaxSubscribers(t *testing.T) {
	_, _, ts, reg := newStreamServer(t, 1, ServerOptions{
		Stream: StreamConfig{MaxSubscribers: 1},
	})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	first, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	if _, err := client.Watch(ctx, WatchOptions{}); err == nil {
		t.Fatal("second subscription admitted past MaxSubscribers=1")
	} else if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("shed error %v does not carry the overloaded code", err)
	}
	if reg.Counter("stream.subscribe_rejections").Value() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestStreamSubscriberChurnNoLeak churns 1k hub subscriptions (plus live
// traffic) and checks no goroutines accumulate: the hub runs exactly one
// loop goroutine regardless of subscriber count, and a closed
// subscription leaves nothing behind.
func TestStreamSubscriberChurnNoLeak(t *testing.T) {
	reg := obs.NewRegistry()
	hub, err := NewStreamHub(4, StreamConfig{}, reg)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		sub, err := hub.Subscribe(0)
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		hub.Feed([]BatchSubmission{{Account: fmt.Sprintf("a%d", i%100), Task: i % 4, Value: float64(i)}})
		sub.Take()
		sub.Close()
	}
	if g := reg.Gauge("stream.subscribers").Value(); g != 0 {
		t.Fatalf("subscriber gauge = %d after churn, want 0", g)
	}
	hub.Close()
	// Goroutines park asynchronously; allow them a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 1k subscriber churn", before, runtime.NumGoroutine())
}

// TestWatchHTTPChurnNoLeak does a smaller churn over real HTTP: every
// closed client connection must terminate its handler goroutine.
func TestWatchHTTPChurnNoLeak(t *testing.T) {
	_, _, ts, reg := newStreamServer(t, 2, ServerOptions{})
	client := NewClient(ts.URL)

	warm, cancelWarm := context.WithCancel(context.Background())
	w, err := client.Watch(warm, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancelWarm()
	for range w.Updates() {
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		wi, err := client.Watch(ctx, WatchOptions{})
		if err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
		cancel()
		for range wi.Updates() {
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Gauge("stream.subscribers").Value() == 0 && runtime.NumGoroutine() <= before+5 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("leak after HTTP churn: %d goroutines (baseline %d), %d subscribers still registered",
		runtime.NumGoroutine(), before, reg.Gauge("stream.subscribers").Value())
}

// TestWatchReconnectResumes: the auto-reconnecting watcher survives its
// connection being severed and picks the stream back up with resume.
func TestWatchReconnectResumes(t *testing.T) {
	_, _, ts, _ := newStreamServer(t, 2, ServerOptions{})
	// MaxRetries covers the submit that races the severed connection pool:
	// CloseClientConnections kills pooled submit conns too, so the first
	// POST after the cut can land on a dead socket.
	client := NewClient(ts.URL, WithConfig(ClientConfig{MaxRetries: 3, RetryBaseDelay: 10 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	w, err := client.Watch(ctx, WatchOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -30}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Next(5 * time.Second); !ok {
		t.Fatal("no update before the cut")
	}

	// Sever every open client connection; the watcher must redial.
	ts.CloseClientConnections()
	if err := client.Submit(ctx, SubmissionRequest{Account: "bo", Task: 1, Value: -40}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		u, ok := w.Next(time.Second)
		if ok && u.Task == 1 {
			return // reconnected and resumed
		}
	}
	t.Fatal("watcher never recovered after its connection was severed")
}

// TestStreamMetricsExposed: the fan-out metrics ride the standard
// /v1/metrics endpoint.
func TestStreamMetricsExposed(t *testing.T) {
	_, _, ts, _ := newStreamServer(t, 1, ServerOptions{})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := client.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Next(5 * time.Second); !ok {
		t.Fatal("no update")
	}
	snap, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["stream.subscribers"] != 1 {
		t.Errorf("stream.subscribers = %d, want 1", snap.Gauges["stream.subscribers"])
	}
	if snap.Counters["stream.reports"] == 0 {
		t.Error("stream.reports counter is zero")
	}
	if snap.Counters["stream.pushed_updates"] == 0 {
		t.Error("stream.pushed_updates counter is zero")
	}
	if _, ok := snap.Histograms["stream.push_latency_seconds"]; !ok {
		t.Error("stream.push_latency_seconds histogram missing")
	}
}

// TestStreamSeedsFromExistingData: reports submitted before the server
// (or hub) existed — e.g. recovered from a WAL — appear on the stream as
// the initial snapshot.
func TestStreamSeedsFromExistingData(t *testing.T) {
	store := NewLocalStore(testTasks(2))
	if err := store.Submit(context.Background(), "ana", 1, -42, at(0)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	server := NewServerWithOptions(store, ServerOptions{Registry: reg})
	ts := httptest.NewServer(server)
	defer ts.Close()
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := NewClient(ts.URL).Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u, ok := w.Next(5 * time.Second)
	if !ok {
		t.Fatal("no snapshot update for pre-existing data")
	}
	if u.Task != 1 || u.Value != -42 {
		t.Fatalf("snapshot update = %+v, want task 1 value -42", u)
	}
}

// TestTakeDeliversMonotoneSeq is the coalescing-order regression test:
// latest-wins replaces a pending update in place, which used to leave the
// task at its old FIFO position, so a drain could emit seq 9 before seq 6.
// A client that disconnected mid-batch would then resume from the max seq
// it saw and permanently skip the lower-seq update it was still owed.
// Take must deliver in ascending Seq order.
func TestTakeDeliversMonotoneSeq(t *testing.T) {
	hub, err := NewStreamHub(3, StreamConfig{}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	sub, err := hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)

	sub.offer(TruthUpdate{Seq: 5, Task: 0, Value: 1})
	sub.offer(TruthUpdate{Seq: 6, Task: 1, Value: 2})
	sub.offer(TruthUpdate{Seq: 9, Task: 0, Value: 3}) // coalesces task 0 in place

	got := sub.Take()
	if len(got) != 2 {
		t.Fatalf("Take returned %d updates, want 2 (coalesced)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("non-monotone delivery: seq %d after seq %d (batch %+v)",
				got[i].Seq, got[i-1].Seq, got)
		}
	}
	if got[0].Seq != 6 || got[1].Seq != 9 {
		t.Fatalf("seqs = [%d, %d], want [6, 9]", got[0].Seq, got[1].Seq)
	}
	if got[1].Value != 3 {
		t.Fatalf("coalesced task 0 carries value %v, want the latest (3)", got[1].Value)
	}
	if d := sub.Dropped(); d != 1 {
		t.Fatalf("dropped = %d, want 1 (the superseded intermediate)", d)
	}
}

// TestSeedSkipsPairsAlreadyFed: Server.syncHub empties the hub and then
// reads the store, and a handler can feed a pair in between, so the pair
// also appears in the dataset seed gets. seed must keep the fed
// observation rather than observe it again. The dataset carries another
// value for ana only to make a second observation visible.
func TestSeedSkipsPairsAlreadyFed(t *testing.T) {
	hub, err := NewStreamHub(1, StreamConfig{}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	hub.Feed([]BatchSubmission{{Account: "ana", Task: 0, Value: -60}})
	hub.seed(&mcs.Dataset{
		Tasks: make([]mcs.Task, 1),
		Accounts: []mcs.Account{
			{ID: "ana", Observations: []mcs.Observation{{Task: 0, Value: -90}}}, // stale snapshot of ana
			{ID: "bo", Observations: []mcs.Observation{{Task: 0, Value: -58}}},  // snapshot-only, must land
		},
	})
	hub.estMu.Lock()
	ests := hub.est.Estimate()
	hub.estMu.Unlock()
	// ana's fed -60 must survive the dataset's -90; with bo's -58 the
	// estimate lies between the two.
	if ests[0] < -60 || ests[0] > -58 {
		t.Fatalf("estimate %v outside [-60, -58]: seed overwrote a live feed", ests[0])
	}
}

// watchSnapshot subscribes to c's truth stream and returns the per-task
// values it delivers before the stream has been quiet for 300 ms: the
// snapshot of the current estimates.
func watchSnapshot(t *testing.T, c *Client) map[int]float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := c.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	got := make(map[int]float64)
	for {
		u, ok := w.Next(300 * time.Millisecond)
		if !ok {
			return got
		}
		got[u.Task] = u.Value
	}
}

// TestWatchFeedsOnlyAcknowledgedReports: the submit handlers feed the
// truth stream exactly the reports the store acknowledged. A duplicate,
// an unknown task or a rate-limited account never reaches the hub, and a
// follower, which serves no watch, neither seeds nor feeds its hub. The
// router's half of the check is TestRouterWatchFeedsOnlyAcknowledgedReports.
func TestWatchFeedsOnlyAcknowledgedReports(t *testing.T) {
	ctx := context.Background()

	t.Run("node", func(t *testing.T) {
		_, _, ts, reg := newStreamServer(t, 4, ServerOptions{
			// Three requests or items per account, with no refill in the test.
			Limits: ServerLimits{RatePerSec: 1e-3, RateBurst: 3},
		})
		client := NewClient(ts.URL, WithRetries(0))
		if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -50}); err != nil {
			t.Fatal(err)
		}
		if err := client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -90}); !errors.Is(err, ErrDuplicateReport) {
			t.Fatalf("second submit = %v, want ErrDuplicateReport", err)
		}
		// The refusal still spends one of dee's tokens, leaving two.
		if err := client.Submit(ctx, SubmissionRequest{Account: "dee", Task: 99, Value: -10}); !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("unknown-task submit = %v, want ErrUnknownTask", err)
		}
		results, err := client.SubmitBatch(ctx, []SubmissionRequest{
			{Account: "bo", Task: 1, Value: -60},
			{Account: "ana", Task: 0, Value: -95},
			{Account: "cy", Task: 99, Value: -10},
			{Account: "dee", Task: 0, Value: -10},
			{Account: "eve", Task: 2, Value: -70},
			{Account: "dee", Task: 1, Value: -10},
			{Account: "dee", Task: 3, Value: -10},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []error{nil, ErrDuplicateReport, ErrUnknownTask, ErrRateLimited, nil, ErrRateLimited, ErrRateLimited}
		for i, res := range results {
			if err := res.Err(); !errors.Is(err, want[i]) {
				t.Fatalf("item %d = %v, want %v", i, err, want[i])
			}
		}
		if n := counterVal(reg, "stream.reports"); n != 3 {
			t.Fatalf("stream.reports = %d, want the 3 accepted reports", n)
		}
		got := watchSnapshot(t, client)
		wantTruths := map[int]float64{0: -50, 1: -60, 2: -70}
		if len(got) != len(wantTruths) {
			t.Fatalf("watch delivered %v, want %v", got, wantTruths)
		}
		for task, v := range wantTruths {
			if math.Abs(got[task]-v) > 1e-9 {
				t.Fatalf("watch delivered %v, want %v", got, wantTruths)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		_, _, ts, reg := newStreamServer(t, 2, ServerOptions{})
		client := NewClient(ts.URL, WithRetries(0))
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own, v := fmt.Sprintf("g%02d", g), float64(g)
				// All sixteen race for the shared account's report; one wins.
				for _, req := range []SubmissionRequest{
					{Account: "shared", Task: 0, Value: v},
					{Account: own, Task: 0, Value: v},
					{Account: own, Task: 0, Value: v},
				} {
					if err := client.Submit(ctx, req); err == nil {
						accepted.Add(1)
					} else if !errors.Is(err, ErrDuplicateReport) {
						t.Error(err)
					}
				}
				results, err := client.SubmitBatch(ctx, []SubmissionRequest{
					{Account: "shared", Task: 1, Value: v},
					{Account: own, Task: 1, Value: v},
					{Account: own, Task: 0, Value: v},
					{Account: own, Task: 9, Value: v},
				})
				if err != nil {
					t.Error(err)
					return
				}
				for _, res := range results {
					if res.Err() == nil {
						accepted.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if a := accepted.Load(); a != 2+2*16 {
			t.Fatalf("accepted %d reports, want %d", a, 2+2*16)
		}
		if n := counterVal(reg, "stream.reports"); n != accepted.Load() {
			t.Fatalf("stream.reports = %d, want the %d accepted reports", n, accepted.Load())
		}
	})

	t.Run("follower", func(t *testing.T) {
		dir := t.TempDir()
		follower := startReplNode(t, dir, ReplicationOptions{
			FollowerOf:   "http://primary.invalid",
			ShipInterval: 10 * time.Millisecond,
		})
		primary := startReplNode(t, t.TempDir(), ReplicationOptions{
			Followers:    []string{follower.srv.URL},
			ShipInterval: 10 * time.Millisecond,
		})
		if err := primary.client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -50}); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.client.SubmitBatch(ctx, []SubmissionRequest{
			{Account: "bo", Task: 1, Value: -60},
			{Account: "ana", Task: 0, Value: -95},
		}); err != nil {
			t.Fatal(err)
		}
		primarySeq := primary.d.durableSeq()
		waitFor(t, 5*time.Second, "follower catch-up", func() bool {
			st, err := follower.client.ReplStatus(ctx)
			return err == nil && st.DurableSeq == primarySeq
		})
		if n := counterVal(primary.reg, "stream.reports"); n != 2 {
			t.Fatalf("primary stream.reports = %d, want the 2 accepted reports", n)
		}
		if n := counterVal(follower.reg, "stream.reports"); n != 0 {
			t.Fatalf("follower stream.reports = %d after applying frames, want 0", n)
		}
		// Restarted over the data it applied, the follower seeds nothing.
		follower.stop()
		again := startReplNode(t, dir, ReplicationOptions{FollowerOf: "http://primary.invalid"})
		if n := again.store.NumAccounts(); n != 2 {
			t.Fatalf("restarted follower holds %d accounts, want 2", n)
		}
		hub := again.srv.Config.Handler.(*Server).hub
		hub.estMu.Lock()
		seeded := hub.est.Has("ana", 0) || hub.est.Has("bo", 1)
		hub.estMu.Unlock()
		if seeded {
			t.Fatal("a follower's hub was seeded from its dataset")
		}
	})
}

// TestWatchFollowsPrimaryRole: a replicated node streams only while it is
// primary. Demoted by a newer primary's ship, it ends its open watch and
// refuses new ones with not_primary. Promoted again, it streams what its
// store holds: the reports it applied as a follower, and not its own
// report that the newer primary's snapshot erased.
func TestWatchFollowsPrimaryRole(t *testing.T) {
	ctx := context.Background()
	a := startReplNode(t, t.TempDir(), ReplicationOptions{ShipInterval: 10 * time.Millisecond})
	b := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x", ShipInterval: 10 * time.Millisecond})
	// Acknowledged by a alone: b never receives it.
	if err := a.client.Submit(ctx, SubmissionRequest{Account: "ana", Task: 0, Value: -50}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	w, err := a.client.Watch(wctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := w.Next(5 * time.Second); !ok || u.Task != 0 || u.Value != -50 {
		t.Fatalf("first update = %+v, %v; want task 0 value -50", u, ok)
	}

	// b becomes primary at epoch 1 and ships to a: a steps down, adopts
	// b's snapshot (erasing ana) and applies b's frames.
	if _, err := b.client.ReplSetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 1, Followers: []string{a.srv.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := b.client.Submit(ctx, SubmissionRequest{Account: "bo", Task: 1, Value: -60}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "a adopts b's snapshot", func() bool {
		return a.repl.Role() == RoleFollower && a.d.Epoch() == 1 && a.d.durableSeq() == b.d.durableSeq()
	})
	if err := b.client.Submit(ctx, SubmissionRequest{Account: "cy", Task: 2, Value: -70}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "a applies b's frames", func() bool {
		return a.d.durableSeq() == b.d.durableSeq()
	})

	// The open watch ends rather than serving the old estimates.
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case u, ok := <-w.Updates():
			if open = ok; ok {
				t.Fatalf("demoted node pushed %+v", u)
			}
		case <-deadline:
			t.Fatal("the demoted node's watch stayed open")
		}
	}
	if _, err := a.client.Watch(wctx, WatchOptions{}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("watch on a follower = %v, want ErrNotPrimary", err)
	}

	if _, err := a.client.ReplSetRole(ctx, ReplRoleRequest{Role: RolePrimary, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	got := watchSnapshot(t, a.client)
	want := map[int]float64{1: -60, 2: -70}
	if len(got) != len(want) || math.Abs(got[1]-want[1]) > 1e-9 || math.Abs(got[2]-want[2]) > 1e-9 {
		t.Fatalf("promoted node streams %v, want %v", got, want)
	}
	if n := counterVal(a.reg, "stream.reports"); n != 1 {
		t.Fatalf("a's stream.reports = %d, want its 1 own ack", n)
	}
}
