// Command mcsplatform serves the MCS platform HTTP API.
//
// Usage:
//
//	mcsplatform -addr :8080 -tasks 10 [-data-dir ./data] [-pprof]
//
// The platform publishes N sensing tasks laid out as a synthetic POI map,
// accepts submissions and sign-in fingerprint captures, and serves
// Sybil-resistant aggregation at POST /v1/aggregate.
//
// Durability: with -data-dir, every mutation is appended and fsynced to a
// write-ahead log before it is acknowledged, and the log is periodically
// compacted into snapshots (every -snapshot-every records, plus once at
// shutdown). On startup the directory is recovered — snapshot first, then
// the WAL tail, truncating any torn or corrupt final record — so a
// kill -9 or power cut loses nothing that was acknowledged. Without
// -data-dir the platform is purely in-memory, exactly as before.
//
// Observability: GET /v1/metrics returns the process metrics registry as
// JSON (request counters, route latency histograms, framework stage
// timings, WAL append/fsync latency, snapshot counters, recovery gauges);
// GET /metrics serves the same registry in the Prometheus text format.
// The -pprof flag additionally mounts net/http/pprof under /debug/pprof/
// for CPU and heap profiling of a live platform.
//
// Streaming truth: GET /v1/truths:watch is a server-push SSE stream of
// on-change truth estimates. Every accepted report feeds a shared
// evolving-truth estimator incrementally — no /v1/aggregate round trips —
// and subscribers receive per-task updates with latest-wins coalescing
// under backpressure (-watch-buffer, -watch-max-subscribers). The stream
// is exempt from -timeout and -request-timeout; reconnecting clients
// resume via the SSE Last-Event-ID. A replicated node streams only while
// it is primary: a follower answers 503 not_primary and a demotion ends
// open streams.
//
// Replication: with -followers the node is a replica-group primary — every
// durable WAL record is shipped (sequence-numbered, CRC-carrying,
// idempotent on replay) to each follower over POST /v1/repl/frames; with
// -follower-of the node starts as a follower, applying shipped frames and
// rejecting client writes with 503 not_primary until promoted via
// POST /v1/repl/role. -repl-ack async acknowledges writes after the local
// fsync; semisync withholds the ack until at least one follower confirmed
// durability. Both require -data-dir.
//
// Joining a live fleet: -join http://router:8080 (with -advertise
// listing this group's externally reachable URLs, primary first) asks
// the fleet's router to admit this replica group via its online-reshard
// coordinator once the node is serving. Run it on one member per group;
// the request retries until the router accepts it.
//
// Leaving a live fleet: -leave http://router:8080 (with -advertise) asks
// the router to decommission this replica group — the ring-shrink inverse
// of -join: the group's keys drain to the survivors, the group is fenced
// and its moved data purged. Keep the group running until the router's
// reshard journal reads done; the drain streams from this group's WAL.
//
// Overload protection: every /v1 route passes a weighted-concurrency
// admission gate (-max-concurrent, -max-queue, -queue-timeout) and carries
// a propagated deadline (-request-timeout); mutating routes are optionally
// rate-limited per account (-rate, -rate-burst). Shed requests get 503 (or
// 429) with a Retry-After header. GET /healthz is liveness, GET /readyz is
// readiness (503 while draining or saturated). On SIGINT/SIGTERM the
// server flips /readyz, drains in-flight requests for up to
// -drain-timeout, and only then writes the final snapshot.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mobility"
	"sybiltd/internal/platform"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	numTasks := flag.Int("tasks", 10, "number of sensing tasks to publish")
	seed := flag.Int64("seed", 1, "seed for the POI layout")
	maxAccounts := flag.Int("max-accounts", 0, "cap on registered accounts (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots); empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 1024, "WAL records between snapshot compactions (with -data-dir); the frames of the last two intervals stay in memory (about 2 x N x 170 B) so followers less than one interval behind catch up without a snapshot")
	commitLinger := flag.Duration("commit-linger", 2*time.Millisecond, "group-commit linger: max extra ack latency while coalescing concurrent WAL fsyncs (0 = fsync as soon as no other is in flight; with -data-dir)")
	commitBatch := flag.Int("commit-batch", 64, "group-commit fsyncs early once this many records are pending (with -commit-linger)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request read/write timeout (0 disables; slowloris guard)")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxConcurrent := flag.Int("max-concurrent", 64, "admission gate capacity in weight units (aggregate=4, dataset=2, rest=1; 0 disables the gate)")
	maxQueue := flag.Int("max-queue", 128, "requests allowed to wait for admission before shedding with 503")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for admission before shedding with 503")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "deadline propagated into store/durability/aggregation work (0 disables)")
	rate := flag.Float64("rate", 0, "per-account token-bucket rate limit in requests/sec for mutating routes (0 disables)")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst size (0 = ceil(rate))")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM before forcing shutdown")
	followers := flag.String("followers", "", "comma-separated follower base URLs to ship the WAL to (makes this node a replica-group primary; requires -data-dir)")
	followerOf := flag.String("follower-of", "", "primary base URL this node replicates from (starts as a follower: writes answer 503 not_primary until promoted; requires -data-dir)")
	replAck := flag.String("repl-ack", "async", "replication ack mode: async (ack after local fsync) or semisync (ack only once >=1 follower confirmed durability)")
	watchBuffer := flag.Int("watch-buffer", 0, "per-subscriber pending-update buffer on GET /v1/truths:watch; coalesced latest-wins per task (0 = one slot per task)")
	watchMaxSubs := flag.Int("watch-max-subscribers", 4096, "concurrent watch subscribers before new ones are shed with 503 (negative = unlimited)")
	watchTick := flag.Duration("watch-tick", 0, "evolving-truth round interval for the watch stream: older reports decay each round (0 disables decay)")
	join := flag.String("join", "", "router base URL to join as a new replica group via POST /v1/admin/reshard (run on one member per group; requires -advertise)")
	leave := flag.String("leave", "", "router base URL to leave the fleet through via POST /v1/admin/decommission (run on one member per group; requires -advertise; keep the group running until the router's reshard journal reads done)")
	advertise := flag.String("advertise", "", "comma-separated externally reachable base URLs of this replica group, primary first (used with -join / -leave)")
	flag.Parse()

	if *numTasks < 1 {
		fmt.Fprintln(os.Stderr, "mcsplatform: -tasks must be >= 1")
		os.Exit(2)
	}
	if *join != "" && *leave != "" {
		fmt.Fprintln(os.Stderr, "mcsplatform: -join and -leave are mutually exclusive")
		os.Exit(2)
	}
	var advertised []string
	if *join != "" || *leave != "" {
		for _, a := range strings.Split(*advertise, ",") {
			if a = strings.TrimSpace(a); a != "" {
				advertised = append(advertised, a)
			}
		}
		if len(advertised) == 0 {
			fmt.Fprintln(os.Stderr, "mcsplatform: -join/-leave require -advertise URLs for this group (primary first)")
			os.Exit(2)
		}
	}

	logger := log.New(os.Stderr, "mcsplatform ", log.LstdFlags)
	rng := rand.New(rand.NewSource(*seed))
	pois := mobility.LayoutPOIs(*numTasks, 400, 300, 30, rng)
	tasks := make([]mcs.Task, len(pois))
	for i, p := range pois {
		tasks[i] = mcs.Task{ID: i, Name: fmt.Sprintf("POI-%d", i+1), X: p.X, Y: p.Y}
	}

	var store *platform.LocalStore
	var durability *platform.Durability
	if *dataDir != "" {
		var stats platform.RecoveryStats
		var err error
		store, durability, stats, err = platform.OpenDurable(*dataDir, tasks, platform.DurableOptions{
			SnapshotEvery:  *snapshotEvery,
			CommitLinger:   *commitLinger,
			CommitMaxBatch: *commitBatch,
			Logger:         logger,
		})
		if err != nil {
			logger.Printf("open data dir %s: %v", *dataDir, err)
			os.Exit(1)
		}
		logger.Printf("durable: %s (snapshot seq %d, %d WAL records replayed, %d skipped, %d bytes truncated)",
			*dataDir, stats.SnapshotSeq, stats.RecordsReplayed, stats.RecordsSkipped, stats.BytesTruncated)
		if recovered, _ := store.Tasks(context.Background()); len(recovered) != len(tasks) {
			logger.Printf("durable: serving %d tasks recovered from snapshot (-tasks %d ignored)", len(recovered), *numTasks)
		}
	} else {
		store = platform.NewLocalStore(tasks)
	}
	if *maxAccounts > 0 {
		store.SetMaxAccounts(*maxAccounts)
	}

	var repl *platform.Replication
	if *followers != "" || *followerOf != "" {
		if durability == nil {
			fmt.Fprintln(os.Stderr, "mcsplatform: replication (-followers / -follower-of) requires -data-dir")
			os.Exit(2)
		}
		var followerList []string
		for _, f := range strings.Split(*followers, ",") {
			if f = strings.TrimSpace(f); f != "" {
				followerList = append(followerList, f)
			}
		}
		mode := platform.AckMode(*replAck)
		if mode != platform.AckAsync && mode != platform.AckSemiSync {
			fmt.Fprintf(os.Stderr, "mcsplatform: -repl-ack must be async or semisync, got %q\n", *replAck)
			os.Exit(2)
		}
		repl = platform.NewReplication(store, durability, platform.ReplicationOptions{
			Mode:       mode,
			Followers:  followerList,
			FollowerOf: *followerOf,
			Logger:     logger,
		})
		if *followerOf != "" {
			logger.Printf("replication: follower of %s (writes rejected until promoted)", *followerOf)
		} else {
			logger.Printf("replication: primary shipping to %d follower(s), ack mode %s", len(followerList), mode)
		}
	}

	apiServer := platform.NewServerWithOptions(store, platform.ServerOptions{
		Logger: logger,
		Limits: platform.ServerLimits{
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
			QueueTimeout:   *queueTimeout,
			RequestTimeout: *requestTimeout,
			RatePerSec:     *rate,
			RateBurst:      *rateBurst,
		},
		// The watch stream itself is exempt from -timeout and
		// -request-timeout: the handler lifts the connection deadlines via
		// http.ResponseController, bounding individual writes instead.
		Stream: platform.StreamConfig{
			Buffer:         *watchBuffer,
			MaxSubscribers: *watchMaxSubs,
			TickEvery:      *watchTick,
		},
		// A follower refuses watches with not_primary and streams once
		// promoted (the server follows the live role).
		Replication: repl,
	})
	mux := http.NewServeMux()
	mux.Handle("/", apiServer)
	if *enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Printf("pprof enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		// Full-request timeouts so a slowloris client dripping one byte at
		// a time cannot hold a connection (and its goroutine) forever.
		ReadTimeout:  *timeout,
		WriteTimeout: *timeout,
	}
	if *timeout > 0 {
		srv.IdleTimeout = 2 * *timeout
	}
	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// closeDurability writes the final snapshot; it must run after the
	// server stops accepting mutations, on every exit path.
	exitCode := 0
	closeDurability := func() {
		if durability == nil {
			return
		}
		if err := durability.Close(); err != nil {
			logger.Printf("durable close: %v", err)
			exitCode = 1
			return
		}
		logger.Printf("durable: final snapshot written to %s", *dataDir)
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	served, _ := store.Tasks(context.Background())
	logger.Printf("serving %d tasks on %s (metrics at /metrics and /v1/metrics)", len(served), *addr)
	if *join != "" {
		go joinFleet(ctx, *join, advertised, logger)
	}
	if *leave != "" {
		go leaveFleet(ctx, *leave, advertised[0], logger)
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			exitCode = 1
		}
	case <-ctx.Done():
		// Graceful drain: flip /readyz first so load balancers stop
		// routing here, then let in-flight requests finish (bounded by
		// -drain-timeout), and only then write the final snapshot.
		logger.Printf("shutting down: draining in-flight requests (up to %v)", *drainTimeout)
		apiServer.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
			exitCode = 1
		}
		<-errCh // wait for the serve goroutine to exit
	}
	apiServer.Close() // disconnect watch subscribers, stop the stream hub
	if repl != nil {
		repl.Close() // stop shippers before the final snapshot
	}
	closeDurability()
	os.Exit(exitCode)
}

// joinFleet asks the router to admit this replica group to the live
// fleet. The router may still be booting (or already coordinating a
// different migration), so the request retries with backoff until it is
// accepted, permanently refused, or the process shuts down. The group
// must already be serving before this runs — the router's coordinator
// seeds it through the regular write API the moment the request lands.
func joinFleet(ctx context.Context, router string, addrs []string, logger *log.Logger) {
	postAdmin(ctx, router, "/v1/admin/reshard", "join", map[string]any{"addrs": addrs}, logger)
}

// leaveFleet asks the router to decommission this replica group — the
// shrink inverse of joinFleet, naming the group by its advertised primary
// URL. The group must keep serving until the router's migration finishes:
// the coordinator drains this group's WAL tail and purges its fenced data
// through the same API it serves clients on.
func leaveFleet(ctx context.Context, router, addr string, logger *log.Logger) {
	postAdmin(ctx, router, "/v1/admin/decommission", "leave", map[string]any{"addr": addr}, logger)
}

// postAdmin posts one admin request to the router, retrying with backoff
// until it is accepted (202), permanently refused (501/400), or the
// process shuts down.
func postAdmin(ctx context.Context, router, path, verb string, payload map[string]any, logger *log.Logger) {
	body, err := json.Marshal(payload)
	if err != nil {
		logger.Printf("%s: encode request: %v", verb, err)
		return
	}
	url := strings.TrimRight(router, "/") + path
	client := &http.Client{Timeout: 10 * time.Second}
	for delay := time.Second; ; {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			logger.Printf("%s: build request: %v", verb, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			logger.Printf("%s: router %s unreachable (retrying in %v): %v", verb, router, delay, err)
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				logger.Printf("%s: router %s accepted: %s", verb, router, strings.TrimSpace(string(msg)))
				return
			case http.StatusNotImplemented, http.StatusBadRequest:
				logger.Printf("%s: router %s refused permanently (%d): %s", verb, router, resp.StatusCode, strings.TrimSpace(string(msg)))
				return
			default:
				logger.Printf("%s: router %s answered %d (retrying in %v): %s", verb, router, resp.StatusCode, delay, strings.TrimSpace(string(msg)))
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		if delay < 30*time.Second {
			delay *= 2
		}
	}
}
