// Command mcsrouter fronts a fleet of mcsplatform shard processes with
// the same /v1 wire API each shard serves.
//
// Usage:
//
//	mcsrouter -addr :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Accounts are partitioned across the shards by a consistent-hash ring
// (account-keyed, -vnodes virtual nodes per shard), so every account's
// reports, duplicate guard, and WAL records live on exactly one shard.
// Writes are routed to the owning shard; POST /v1/reports:batch is split
// per shard, dispatched concurrently, and reassembled positionally.
// Whole-campaign reads (aggregate, stats, dataset) scatter-gather: with
// some shards unreachable, aggregation and stats answer from the
// reachable part flagged `"degraded": true` in the response meta, while
// the dataset export fails retryably (a partial archive is worse than a
// late one). GET /readyz aggregates per-shard health and flips 503 with a
// per-shard breakdown if any shard is draining or unreachable.
//
// The router is stateless: it can be restarted (or replicated behind a
// load balancer) at any time, and the ring depends only on the -shards
// list order, which must therefore be identical across router replicas
// and restarts.
//
// Replication: each -shards entry may be a replica group, members
// separated by '|' (first listed = initial primary):
//
//	mcsrouter -shards 'http://a1|http://a2,http://b1|http://b2'
//
// The ring spans groups, writes go to each group's current primary, and
// reads fall back to followers when the primary is unreachable. A
// background poller probes every replica on a jittered -probe-interval;
// when a primary stays dead past -dead-interval the freshest reachable
// follower is promoted (at a higher replication epoch) and writes resume
// there. A returning old primary is demoted and catches up from the new
// primary's WAL. GET /readyz lists every replica with its role and probe
// age.
//
// Online resharding: POST /v1/admin/reshard admits a new replica group
// to the live fleet (requires -data-dir for the coordinator journal):
//
//	curl -XPOST localhost:8080/v1/admin/reshard \
//	  -d '{"addrs":["http://c1","http://c2"]}'
//
// The coordinator seeds the joiner with every account the grown ring
// re-homes, streams the donors' WAL tails until caught up, flips the
// ring (bumping the ring version stamped on every shard RPC), fences
// the moved accounts on the donors, and drains the last raced writes —
// all while the fleet keeps serving. Coordinator state journals to
// <data-dir>/reshard.json; a restarted router resumes an in-flight
// migration automatically (post-flip it completes it, pre-flip it
// restarts the idempotent seed). GET /readyz reports ring_version and
// a migrating flag while a reshard is in flight.
//
// Ring shrink: POST /v1/admin/decommission retires a replica group live,
// by index or by any member address:
//
//	curl -XPOST localhost:8080/v1/admin/decommission -d '{"group":1}'
//	curl -XPOST localhost:8080/v1/admin/decommission -d '{"addr":"http://b1"}'
//
// The same coordinator runs with donor and joiner swapped: the retiring
// group's keys seed onto the survivors, its WAL tail streams until caught
// up, the shrunk ring flips, the group is fenced, the tail drains, and
// its fenced data is purged (the fence stays, so stale writers still get
// wrong_shard). Keep the retiring group in -shards until the journal
// reads done; after that, restart the router without it.
//
// Rebalance: POST /v1/admin/rebalance re-weights the ring for
// heterogeneous hardware, moving only the weight delta's worth of keys:
//
//	curl -XPOST localhost:8080/v1/admin/rebalance -d '{"weights":[2,1,1]}'
//
// Boot-time weights come from -weights (positional with -shards). The
// router also persists its ring floor (version, seeds, weights) to
// <data-dir>/ring_state.json on every topology change and refuses to
// serve below it at boot — a restarted router can never reintroduce a
// pre-flip ring, even when its reshard journal was cleaned up.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sybiltd/internal/platform"
	"sybiltd/internal/platform/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shardList := flag.String("shards", "", "comma-separated shard base URLs, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082 (order defines the ring; keep it stable). Replica groups separate members with '|': primary|follower[,...]")
	dataDir := flag.String("data-dir", "", "router state directory (reshard coordinator journal + persisted ring floor); empty disables the /v1/admin reshard endpoints")
	weightList := flag.String("weights", "", "comma-separated per-group ring weights, positional with -shards (empty = uniform 1.0)")
	probeInterval := flag.Duration("probe-interval", time.Second, "mean interval between health probes of each replica (per-replica jittered; replicated fleets)")
	deadInterval := flag.Duration("dead-interval", 0, "how long a primary must stay unreachable before a follower is promoted (0 = 3x -probe-interval)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = default 128)")
	retries := flag.Int("retries", 2, "per-shard request retries (connection errors, 5xx, shed 429s)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "base backoff before the first shard retry (doubles per attempt)")
	shardTimeout := flag.Duration("shard-timeout", 10*time.Second, "per-request timeout toward a shard")
	startupWait := flag.Duration("startup-wait", 30*time.Second, "how long to wait for at least one shard to answer at startup")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request read/write timeout (0 disables; slowloris guard)")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxConcurrent := flag.Int("max-concurrent", 128, "admission gate capacity in weight units (aggregate=4, dataset=2, rest=1; 0 disables the gate)")
	maxQueue := flag.Int("max-queue", 256, "requests allowed to wait for admission before shedding with 503")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for admission before shedding with 503")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "deadline propagated into shard calls and merged aggregation (0 disables)")
	rate := flag.Float64("rate", 0, "per-account token-bucket rate limit in requests/sec for mutating routes (0 disables)")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst size (0 = ceil(rate))")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM before forcing shutdown")
	watchBuffer := flag.Int("watch-buffer", 0, "per-subscriber pending-update buffer on GET /v1/truths:watch (0 = one slot per task)")
	watchMaxSubs := flag.Int("watch-max-subscribers", 4096, "concurrent watch subscribers before new ones are shed with 503 (negative = unlimited)")
	watchTick := flag.Duration("watch-tick", 0, "evolving-truth round interval for the watch stream (0 disables decay)")
	flag.Parse()

	logger := log.New(os.Stderr, "mcsrouter ", log.LstdFlags)
	newBackend := func(e string) platform.Store {
		client := platform.NewClient(e,
			platform.WithHTTPClient(&http.Client{Timeout: *shardTimeout}),
			platform.WithRetries(*retries),
			platform.WithBackoff(*retryBase, 0),
		)
		return platform.NewRemoteStore(client)
	}
	var configs []shard.GroupConfig
	replicated := false
	for _, grp := range strings.Split(*shardList, ",") {
		if grp = strings.TrimSpace(grp); grp == "" {
			continue
		}
		var gc shard.GroupConfig
		for _, e := range strings.Split(grp, "|") {
			if e = strings.TrimSpace(e); e == "" {
				continue
			}
			gc.Replicas = append(gc.Replicas, newBackend(e))
			gc.Addrs = append(gc.Addrs, e)
		}
		if len(gc.Replicas) == 0 {
			continue
		}
		if len(gc.Replicas) > 1 {
			replicated = true
		}
		configs = append(configs, gc)
	}
	if len(configs) == 0 {
		fmt.Fprintln(os.Stderr, "mcsrouter: -shards must list at least one shard URL")
		os.Exit(2)
	}
	if *weightList != "" {
		parts := strings.Split(*weightList, ",")
		if len(parts) != len(configs) {
			fmt.Fprintf(os.Stderr, "mcsrouter: -weights lists %d weights for %d shard groups\n", len(parts), len(configs))
			os.Exit(2)
		}
		for i, p := range parts {
			w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcsrouter: -weights entry %d: %v\n", i, err)
				os.Exit(2)
			}
			configs[i].Weight = w
		}
	}

	// The ring needs the fleet's task list; wait (bounded) for at least
	// one shard to answer so a fleet booting in parallel with its router
	// converges instead of crash-looping.
	startupCtx, cancelStartup := context.WithTimeout(context.Background(), *startupWait)
	defer cancelStartup()
	var store *shard.Store
	for {
		var err error
		store, err = shard.NewReplicated(startupCtx, configs, shard.Options{VirtualNodes: *vnodes})
		if err == nil {
			break
		}
		select {
		case <-startupCtx.Done():
			logger.Printf("no shard answered within %v: %v", *startupWait, err)
			os.Exit(1)
		case <-time.After(500 * time.Millisecond):
			logger.Printf("waiting for shards: %v", err)
		}
	}
	var poller *shard.FailoverPoller
	if replicated {
		poller = store.StartFailover(shard.FailoverOptions{
			ProbeInterval: *probeInterval,
			DeadInterval:  *deadInterval,
			Logger:        logger,
		})
		dead := *deadInterval
		if dead <= 0 {
			dead = 3 * *probeInterval
		}
		logger.Printf("failover poller running (probe %v, dead after %v)", *probeInterval, dead)
	}

	// Online resharding: the coordinator journal and the ring floor live
	// under -data-dir. A pending journal means a router died mid-migration
	// — resume it before taking traffic, because post-flip the new ring
	// must be reinstalled before any write routes by the stale topology and
	// trips a donor fence. The ring floor covers the journal's blind spot:
	// after a completed migration's journal describes a fleet shape the
	// current -shards no longer matches (or was cleaned up), the persisted
	// floor still pins the minimum version and exact ring this router may
	// serve.
	var journalPath string
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			logger.Printf("data dir %s: %v", *dataDir, err)
			os.Exit(1)
		}
		journalPath = filepath.Join(*dataDir, "reshard.json")
		ringStatePath := filepath.Join(*dataDir, "ring_state.json")
		j, jok, err := shard.LoadMigrationJournal(journalPath)
		if err != nil {
			logger.Printf("reshard journal: %v", err)
			os.Exit(1)
		}
		st, sok, err := shard.LoadRingState(ringStatePath)
		if err != nil {
			// An unreadable floor is fatal: serving below an unknown floor
			// is exactly the stale-ring window the floor exists to close.
			logger.Printf("ring state: %v", err)
			os.Exit(1)
		}
		pending := jok && j.Pending()
		if sok && !(pending && j.RingVersion >= st.Floor) {
			// Refuse to serve below the persisted floor. A pending journal
			// at or above the floor supersedes it — the resume below
			// reinstalls (or re-reaches) that version itself.
			if err := store.AdoptRingState(st.Floor, st.Seeds, st.Weights); err != nil {
				logger.Printf("ring state: refusing to serve below persisted floor v%d: %v", st.Floor, err)
				os.Exit(1)
			}
			logger.Printf("ring floor: serving at persisted v%d", st.Floor)
		}
		var resume *shard.Migration
		if pending {
			var gc shard.GroupConfig
			if j.Kind == "" || j.Kind == shard.MigrationGrow {
				// Only a grow's joiner is absent from -shards; shrink and
				// rebalance involve only configured groups.
				gc.Addrs = append([]string(nil), j.Addrs...)
				for _, e := range j.Addrs {
					gc.Replicas = append(gc.Replicas, newBackend(e))
				}
			}
			resume, err = store.ResumeMigration(gc, j, shard.MigrationOptions{JournalPath: journalPath, Logger: logger})
			if err != nil {
				logger.Printf("reshard: resume: %v", err)
				os.Exit(1)
			}
			logger.Printf("reshard: resuming journaled %s migration to ring v%d (phase %s)", j.Kind, j.RingVersion, j.Phase)
		} else if jok && j.Phase == shard.MigrationDone {
			// The fleet cut over while this router was down and -shards now
			// lists the post-migration fleet. Adopt the journaled ring so
			// requests are stamped with the version the fenced donors
			// demand; a fresh topology would stamp v1 and be refused
			// wholesale. Journals with recorded seeds rebuild the exact ring
			// (shrinks leave gapped seeds); older grow journals fall back to
			// the version-only bump.
			if len(j.Seeds) > 0 && len(configs) == len(j.Seeds) {
				if err := store.AdoptRingState(j.RingVersion, j.Seeds, j.Weights); err != nil {
					logger.Printf("reshard: adopt completed migration's ring v%d: %v", j.RingVersion, err)
					os.Exit(1)
				}
				logger.Printf("reshard: adopted completed %s migration's ring v%d", j.Kind, j.RingVersion)
			} else if len(j.Seeds) == 0 && len(configs) == len(j.Cursors)+1 {
				store.AdoptRingVersion(j.RingVersion)
				logger.Printf("reshard: adopted completed migration's ring v%d", j.RingVersion)
			}
		}
		// Persist the floor from here on. Enabled only after any adoption or
		// resume installed the right topology — enabling earlier would
		// overwrite the old floor with this process's fresh version 1.
		if err := store.EnableRingStatePersistence(ringStatePath); err != nil {
			logger.Printf("ring state: %v", err)
			os.Exit(1)
		}
		if resume != nil {
			go func() {
				if err := resume.Run(context.Background()); err != nil {
					logger.Printf("reshard: %v", err)
				}
			}()
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
		Stream: platform.StreamConfig{
			Buffer:         *watchBuffer,
			MaxSubscribers: *watchMaxSubs,
			TickEvery:      *watchTick,
		},
	})
	mux := http.NewServeMux()
	mux.Handle("/", apiServer)
	migOpts := shard.MigrationOptions{JournalPath: journalPath, Logger: logger}
	mux.HandleFunc("POST /v1/admin/reshard", func(w http.ResponseWriter, r *http.Request) {
		if journalPath == "" {
			adminError(w, http.StatusNotImplemented, "unimplemented", "resharding requires -data-dir for the coordinator journal")
			return
		}
		var req struct {
			Addrs []string `json:"addrs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			adminError(w, http.StatusBadRequest, "bad_request", "decode body: "+err.Error())
			return
		}
		var gc shard.GroupConfig
		for _, e := range req.Addrs {
			if e = strings.TrimSpace(e); e != "" {
				gc.Replicas = append(gc.Replicas, newBackend(e))
				gc.Addrs = append(gc.Addrs, e)
			}
		}
		if len(gc.Replicas) == 0 {
			adminError(w, http.StatusBadRequest, "bad_request", "addrs must list at least one replica URL (primary first)")
			return
		}
		m, err := store.StartMigration(gc, migOpts)
		answerStart(w, logger, m, err, fmt.Sprintf("admitting %v as group %d", gc.Addrs, store.Shards()), nil)
	})
	mux.HandleFunc("POST /v1/admin/decommission", func(w http.ResponseWriter, r *http.Request) {
		if journalPath == "" {
			adminError(w, http.StatusNotImplemented, "unimplemented", "decommission requires -data-dir for the coordinator journal")
			return
		}
		var req struct {
			Group *int   `json:"group,omitempty"`
			Addr  string `json:"addr,omitempty"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			adminError(w, http.StatusBadRequest, "bad_request", "decode body: "+err.Error())
			return
		}
		gi := -1
		switch {
		case req.Group != nil:
			gi = *req.Group
		case req.Addr != "":
			for i, gc := range configs {
				for _, a := range gc.Addrs {
					if a == req.Addr {
						gi = i
					}
				}
			}
			if gi < 0 {
				adminError(w, http.StatusBadRequest, "bad_request", "addr "+req.Addr+" is not a member of any configured group")
				return
			}
		default:
			adminError(w, http.StatusBadRequest, "bad_request", "body must name the retiring group by index (group) or member URL (addr)")
			return
		}
		m, err := store.StartDecommission(gi, migOpts)
		answerStart(w, logger, m, err, fmt.Sprintf("decommissioning group %d", gi), map[string]any{"retiring": gi})
	})
	mux.HandleFunc("POST /v1/admin/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if journalPath == "" {
			adminError(w, http.StatusNotImplemented, "unimplemented", "rebalance requires -data-dir for the coordinator journal")
			return
		}
		var req struct {
			Weights []float64 `json:"weights"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			adminError(w, http.StatusBadRequest, "bad_request", "decode body: "+err.Error())
			return
		}
		m, err := store.StartRebalance(req.Weights, migOpts)
		answerStart(w, logger, m, err, fmt.Sprintf("rebalancing to weights %v", req.Weights), nil)
	})
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
		ReadTimeout:       *timeout,
		WriteTimeout:      *timeout,
	}
	if *timeout > 0 {
		srv.IdleTimeout = 2 * *timeout
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exitCode := 0
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	tasks, _ := store.Tasks(context.Background())
	logger.Printf("routing %d tasks across %d shards on %s", len(tasks), store.Shards(), *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			exitCode = 1
		}
	case <-ctx.Done():
		// Graceful drain: flip /readyz first so load balancers stop
		// routing here, then let in-flight requests finish. The shards
		// keep running — draining a stateless router loses nothing.
		logger.Printf("shutting down: draining in-flight requests (up to %v)", *drainTimeout)
		apiServer.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
			exitCode = 1
		}
		<-errCh
	}
	if poller != nil {
		poller.Stop()
	}
	apiServer.Close()
	os.Exit(exitCode)
}

// adminError writes an admin route's JSON error body.
func adminError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// answerStart is the shared tail of the three admin routes, given what
// their Start call returned. A refusal that wraps
// platform.ErrMalformedRequest (the last group, a group out of range,
// invalid or unchanged weights) answers 400 bad_request, because the same
// request can never be accepted; any other refusal, such as a migration
// already in flight, answers 409 conflict. A started migration runs in
// the background, and the route answers 202 with the journaled ring
// version and the fields of extra.
func answerStart(w http.ResponseWriter, logger *log.Logger, m *shard.Migration, err error, what string, extra map[string]any) {
	if err != nil {
		if errors.Is(err, platform.ErrMalformedRequest) {
			adminError(w, http.StatusBadRequest, "bad_request", err.Error())
		} else {
			adminError(w, http.StatusConflict, "conflict", err.Error())
		}
		return
	}
	// Read the journaled version before Run starts mutating the journal.
	ringVersion := m.Journal().RingVersion
	logger.Printf("reshard: %s (ring v%d)", what, ringVersion)
	go func() {
		if err := m.Run(context.Background()); err != nil {
			logger.Printf("reshard: %v", err)
		}
	}()
	body := map[string]any{"status": "migrating", "ring_version": ringVersion}
	for k, v := range extra {
		body[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(body)
}
