package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// acceptCounter wraps a listener and counts the connections it accepts.
type acceptCounter struct {
	net.Listener
	accepted atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// serveCounted serves h on a new httptest server whose listener counts
// the connections it accepts.
func serveCounted(t testing.TB, h http.Handler) (*httptest.Server, *acceptCounter) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	l := &acceptCounter{Listener: srv.Listener}
	srv.Listener = l
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, l
}

// routerShardClient builds a shard client as cmd/mcsrouter does: an
// http.Client with a timeout and no Transport.
func routerShardClient(url string) *platform.Client {
	return platform.NewClient(url, platform.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}))
}

// TestRouterKeepsShardConnections: a router's shard clients keep the
// connections their concurrent requests open, so rounds of concurrent
// writes reuse them instead of dialing again. Each shard may accept at
// most the peak number of requests in flight, 32; on a transport that
// keeps 2 idle connections per host, the submit rounds alone open
// hundreds per shard. Every connection counts in client.conns_dialed.
func TestRouterKeepsShardConnections(t *testing.T) {
	const shards, peak, rounds = 3, 32, 40
	ctx := context.Background()
	dialed := obs.Default().Counter("client.conns_dialed")
	dialedBefore := dialed.Value()

	backends := make([]platform.Store, shards)
	counters := make([]*acceptCounter, shards)
	for i := range backends {
		api := platform.NewServer(platform.NewLocalStore(testTasks(1)), nil)
		t.Cleanup(api.Close)
		srv, l := serveCounted(t, api)
		counters[i] = l
		backends[i] = platform.NewRemoteStore(routerShardClient(srv.URL))
	}
	s, err := New(ctx, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}

	concurrently := func(n int, call func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				call(w)
			}(w)
		}
		wg.Wait()
	}
	for r := 0; r < rounds; r++ {
		concurrently(peak, func(w int) {
			account := fmt.Sprintf("s%02d-%02d", r, w)
			if err := s.Submit(ctx, account, 0, -80, at(0)); err != nil {
				t.Errorf("submit %s: %v", account, err)
			}
		})
	}
	for r := 0; r < rounds; r++ {
		concurrently(8, func(w int) {
			items := make([]platform.BatchSubmission, 16)
			for i := range items {
				items[i] = platform.BatchSubmission{Account: fmt.Sprintf("b%02d-%d-%02d", r, w, i), Value: -80, At: at(0)}
			}
			for i, err := range s.SubmitBatch(ctx, items) {
				if err != nil {
					t.Errorf("batch item %s: %v", items[i].Account, err)
				}
			}
		})
	}

	var accepted int64
	for i, l := range counters {
		n := l.accepted.Load()
		accepted += n
		if n > peak {
			t.Errorf("shard %d accepted %d connections for at most %d concurrent requests: the router closed connections its next round needed", i, n, peak)
		}
	}
	if got := dialed.Value() - dialedBefore; got < accepted {
		t.Errorf("client.conns_dialed advanced by %d, but the shards accepted %d connections", got, accepted)
	}
}
