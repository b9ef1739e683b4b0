package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
	"sybiltd/internal/platform/shard"
)

// Fleet shape: three replica groups of two, every write acknowledged only
// once the group's follower holds it (semi-sync), behind one router.
const (
	numGroups   = 3
	numReplicas = 2
)

// node is one mcsplatform process stand-in: a durable store with its
// replication manager behind a real loopback listener.
type node struct {
	store *platform.LocalStore
	dur   *platform.Durability
	repl  *platform.Replication
	api   *platform.Server
	srv   *server
	url   string
}

// fleet is the in-process deployment the benchmark drives: every hop
// (client to router, router to shard primary, primary to follower) is a
// real HTTP round trip over loopback, and every node journals to its own
// WAL on disk.
type fleet struct {
	dir    string
	nodes  []*node // group gi's replica ri is nodes[gi*numReplicas+ri]
	router *shard.Store
	poller *shard.FailoverPoller
	api    *platform.Server
	srv    *server
	url    string
}

// server is a started http.Server plus the channel its Serve loop closes
// on exit, so shutdown can wait for it.
type server struct {
	hs   *http.Server
	done chan struct{}
}

// listen reserves a loopback port before the handler exists: replicas need
// each other's URLs at construction.
func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return l, "http://" + l.Addr().String(), nil
}

// serve starts h on l with the timeouts the cmd/ servers use.
func serve(l net.Listener, h http.Handler) *server {
	s := &server{
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(l) // returns http.ErrServerClosed on close
	}()
	return s
}

func (s *server) close() {
	_ = s.hs.Close() // listener and connection close errors carry no information here
	<-s.done
}

// startFleet boots the fleet under dir with the production defaults of
// cmd/mcsplatform and cmd/mcsrouter. A non-nil rec wires the outside-in
// trace hooks (handler, transport and filesystem wrappers) into every node
// and the router; with rec nil the fleet runs exactly the production code.
func startFleet(ctx context.Context, dir string, tasks []mcs.Task, rec *recorder) (*fleet, error) {
	f := &fleet{dir: dir, nodes: make([]*node, numGroups*numReplicas)}
	listeners := make([]net.Listener, 0, len(f.nodes))
	ok := false
	defer func() {
		if !ok {
			// Listeners not yet handed to a server would leak; closing one
			// a server already owns only ends its Serve loop early.
			for _, l := range listeners {
				l.Close()
			}
			f.close()
		}
	}()
	urls := make([]string, len(f.nodes))
	for i := range f.nodes {
		l, u, err := listen()
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		urls[i] = u
	}
	configs := make([]shard.GroupConfig, numGroups)
	for gi := 0; gi < numGroups; gi++ {
		primary := gi * numReplicas
		for ri := numReplicas - 1; ri >= 0; ri-- {
			idx := primary + ri
			ropts := platform.ReplicationOptions{Mode: platform.AckSemiSync}
			if ri == 0 {
				ropts.Followers = urls[primary+1 : primary+numReplicas]
			} else {
				ropts.FollowerOf = urls[primary]
			}
			n, err := startNode(filepath.Join(dir, fmt.Sprintf("g%d-r%d", gi, ri)), tasks, ropts, listeners[idx], urls[idx], idx, rec)
			if err != nil {
				return nil, err
			}
			f.nodes[idx] = n
		}
		for ri := 0; ri < numReplicas; ri++ {
			hc := &http.Client{Timeout: 10 * time.Second}
			if rec != nil {
				hc.Transport = rec.transport(layerHop, -1)
			}
			client := platform.NewClient(urls[primary+ri],
				platform.WithHTTPClient(hc),
				platform.WithRetries(2),
				platform.WithBackoff(50*time.Millisecond, 0),
			)
			configs[gi].Replicas = append(configs[gi].Replicas, platform.NewRemoteStore(client))
			configs[gi].Addrs = append(configs[gi].Addrs, urls[primary+ri])
		}
	}

	router, err := shard.NewReplicated(ctx, configs, shard.Options{})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	f.router = router
	f.poller = router.StartFailover(shard.FailoverOptions{ProbeInterval: time.Second})
	f.api = platform.NewServerWithOptions(router, platform.ServerOptions{
		Limits: platform.ServerLimits{
			MaxConcurrent:  128,
			MaxQueue:       256,
			QueueTimeout:   time.Second,
			RequestTimeout: 30 * time.Second,
		},
	})
	l, u, err := listen()
	if err != nil {
		return nil, err
	}
	var h http.Handler = f.api
	if rec != nil {
		h = rec.handler(layerRouter, -1, h)
	}
	f.srv, f.url = serve(l, h), u
	ok = true
	return f, nil
}

// startNode opens one replica's durable store and serves it on l.
func startNode(dir string, tasks []mcs.Task, ropts platform.ReplicationOptions, l net.Listener, url string, idx int, rec *recorder) (*node, error) {
	dopts := platform.DurableOptions{
		SnapshotEvery:  1024,
		CommitLinger:   2 * time.Millisecond,
		CommitMaxBatch: 64,
	}
	if rec != nil {
		dopts.FS = rec.fs(idx)
		ropts.NewClient = func(endpoint string) *platform.Client {
			hc := &http.Client{Timeout: 10 * time.Second, Transport: rec.transport(layerShip, idx)}
			return platform.NewClient(endpoint, platform.WithHTTPClient(hc), platform.WithRetries(0))
		}
	}
	store, dur, _, err := platform.OpenDurable(dir, tasks, dopts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	repl := platform.NewReplication(store, dur, ropts)
	api := platform.NewServerWithOptions(store, platform.ServerOptions{
		Limits: platform.ServerLimits{
			MaxConcurrent:  64,
			MaxQueue:       128,
			QueueTimeout:   time.Second,
			RequestTimeout: 30 * time.Second,
		},
		Replication:  repl,
		DisableWatch: ropts.FollowerOf != "",
	})
	var h http.Handler = api
	if rec != nil {
		h = rec.handler(layerShard, idx, h)
	}
	return &node{store: store, dur: dur, repl: repl, api: api, srv: serve(l, h), url: url}, nil
}

// close stops the router first and then every node, each in the order
// cmd/mcsplatform shuts down (listener, API, shippers, WAL), and removes
// the fleet's data directory.
func (f *fleet) close() error {
	if f.srv != nil {
		f.srv.close()
	}
	if f.api != nil {
		f.api.Close()
	}
	if f.poller != nil {
		f.poller.Stop()
	}
	var errs []error
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		n.srv.close()
		n.api.Close()
		n.repl.Close()
		if err := n.dur.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(f.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// follower returns a client for group gi's follower.
func (f *fleet) follower(gi int) *platform.Client {
	return platform.NewClient(f.nodes[gi*numReplicas+1].url)
}
