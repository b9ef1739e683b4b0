GO ?= go

.PHONY: build test race vet fmt verify perfbench-check fma-check loc bench bench-grouping bench-gather bench-ingest bench-stream fuzz recovery chaos stream shard replication reshard shrink

build:
	$(GO) build ./...

# Fails when any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Runs the full suite under the race detector; the parallel grouping,
# clustering, and experiment paths all spawn worker pools, so this is the
# tier-1 verification for any change touching them.
race:
	$(GO) test -race ./...

# Crash-recovery and fault-injection suite under the race detector: the
# WAL corruption table, the injected write/fsync failures, the
# crash-at-every-byte-offset torture test (which strides offsets under
# -short; this target runs it exhaustively), the crash images of a disk
# whose renames are durable only at a directory sync, and the compaction
# rule's bounds and the frames a node keeps for followers.
recovery:
	$(GO) test -race -run 'WAL|Durable|Recovery|Torture|Crash|Fsync|Snapshot|Scan|Reset|ShortWrite|RoundTrip|OpenRepairs|FailSync|AppendBatch|GroupCommit|Compaction|Retained|ExportSince' ./internal/wal ./internal/platform

# Overload-protection and chaos suite under the race detector: the fault
# injector's campaign (drops, 5xx/429 bursts, torn bodies) with the
# zero-acknowledged-loss check, the admission gate / rate limiter / client
# breaker state machines, retry semantics (Retry-After honored, semantic
# 4xx never retried), and graceful degradation of the framework under
# cancelled grouping.
chaos:
	$(GO) test -race -run 'Chaos|Overload|Breaker|Gate|AccountLimiter|RateLimit|RetryAfter|Retry|Degrad|Ctx|Draining|RequestDeadline|ZeroLimits|AllowN|Jitter|DrainBounded|SubmitBatch' ./internal/chaos ./internal/platform ./internal/core ./internal/parallel

# Streaming-truth suite under the race detector: end-to-end on-change
# delivery over the watch route, latest-wins coalescing and backpressure
# (hub-level and over a saturated socket), the flusher and
# timeout-exemption regressions, subscriber churn goroutine-leak checks,
# and the online estimator's pruning bound.
stream:
	$(GO) test -race -run 'Watch|Stream|Flusher|Online' ./internal/platform ./internal/truth

# Sharded-platform suite under the race detector: the consistent-hash
# ring, shard-aware batch splitting, scatter-gather reads and their
# degradation policy, the router's wire-API and aggregated /readyz, the
# Store interface suite over LocalStore and RemoteStore, the wire-code
# conformance table, the exported-API snapshot, and the 3-shard
# kill-and-recover chaos campaign.
shard:
	$(GO) test -race -run 'Ring|Shard|Router|Remote|Readyz|StoreSuite|WireCode|APISnapshot|ExportedAPI|ChaosSharded' ./internal/platform/...

# Replication-and-failover suite under the race detector: WAL frame
# shipping (idempotent replay, sequence gaps, CRC refusal, epoch rules),
# semi-sync ack redundancy, follower catch-up from the WAL tail, the
# router's failover poller (jittered probes, promotion, demotion of a
# returning stale primary), read fallback to followers, the typed
# unimplemented wire code, and the replicated primary-kill chaos campaign.
replication:
	$(GO) test -race -run 'Repl|Failover|Follower|SemiSync|Promotion|Unimplemented|Flapping|ChaosReplicated|ApplyShip|ShardHealth' ./internal/platform/...

# Online-resharding suite under the race detector: the minimal-delta ring
# property, the stale-ring-version fence on the wire, the wrong_shard
# client re-route (no breaker burn, no retry-budget burn), writes raced
# against the cutover, clean pre-flip aborts, journal resume on either
# side of the flip, and the kill-mid-migration chaos campaign with the
# zero-acked-loss check.
reshard:
	$(GO) test -race -run 'Reshard|RingMovedDelta|Migration|WrongShard' ./internal/platform/...

# Ring-shrink and rebalance suite under the race detector: weighted-vnode
# ring properties (movement proportional to the weight delta; shrink moves
# only the retired group's keys), the live decommission end to end with
# donor purge, rebalance end to end, shrink journal resume on either side
# of the flip, corrupted/empty-journal recovery, the persisted ring-version
# floor, the purge-survives-restart WAL replay check, and the
# kill-survivor-primary-mid-decommission chaos campaign.
shrink:
	$(GO) test -race -run 'Shrink|Decommission|Rebalance|RingWeighted|RingFloor|JournalCorrupt|Purge' ./internal/platform/...

# The benchmark (perfbench/) is its own Go module, so ./... never compiles
# it; vet and test it here so an API change that breaks the benchmark fails
# verify instead of the benchmark run.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Fused multiply-add check. A product that is rounded before it is summed
# (written float64(x*y)) gives the same bits on every GOARCH; a fused
# x*y+z does not, and in the DTW kernel it could even put a distance below
# its endpoint bound, which the AG-TR pair pass prunes by. This builds the
# packages below with their assembly listing for the four GOARCHes whose
# compilers fuse, and fails on any fused multiply-add or multiply-subtract,
# including one in a function inlined from another package.
FMA_PKGS := ./internal/dtw ./internal/grouping ./internal/truth ./internal/core
fma-check:
	@for arch in arm64 ppc64le s390x riscv64; do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
		echo "$$asm" | grep -q 'dtw\.(\*Calculator)\.Distance STEXT' || { echo "fma-check: no $$arch assembly listing"; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '\bFN?M(ADD|SUB)[A-Z]*\b'); \
		if [ -n "$$fused" ]; then echo "fma-check: fused instructions on $$arch:"; echo "$$fused"; exit 1; fi; \
	done; \
	echo "fma-check: no fused multiply-add in $(FMA_PKGS) on arm64, ppc64le, s390x, riscv64"

# The suite targets above are -run filters over packages that race already
# covers in full (no test is gated by a build tag or an environment
# variable), so verify runs each test under -race once; they stay for
# focused local runs.
verify: build fmt vet test race perfbench-check fma-check

# Source size per package: non-blank, non-comment lines of the non-test .go
# files (tracked or new, not ignored), then the total.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | \
		while read -r f; do echo "$$(dirname $$f) $$(grep -v '^\s*//' $$f | grep -cv '^\s*$$')"; done | \
		awk '{n[$$1] += $$2; t += $$2} END {for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t}'

# Regenerates every paper table/figure plus the ablations and the parallel
# grouping scaling benchmark (see EXPERIMENTS.md for a curated run).
bench:
	$(GO) test -bench=. -benchmem ./...

# Threshold-grouping benchmarks, one iteration each: the 500-account AG-TR
# pass at GOMAXPROCS 1, 2, 4 and 8, which fails if any partition differs
# from the sequential one, the AG-TR/AG-TS size sweep at 500 and 2,000
# accounts, and the AG-TR pass from a kept pass over 2,000 accounts with
# none or 1% of them changed, which fails if its partition differs from a
# full pass (drop -short to add 8,000 accounts, and 50,000 for the kept
# pass).
bench-grouping:
	$(GO) test -short -run '^$$' -bench 'AGTRGrouping500|ThresholdGroupingSweep|KeptPass' -benchtime=1x .

# Router gather benchmark, one iteration each: Store.Dataset over three
# HTTP shards at 10,000 accounts with no shard, one shard or every shard
# changed since the last read, in ns/op and response KiB/op. Every
# iteration is checked against a fresh gather. Drop -short to add 100,000.
bench-gather:
	$(GO) test -short -run '^$$' -bench RouterGather -benchtime=1x ./internal/platform/shard/

# One fuzz target per go test run: the DTW kernels and bounds, WAL
# recovery over CRC-valid frames, then the dataset decoder, whose every
# accepted dataset EncodeJSON must write byte for byte as encoding/json.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDistance -fuzztime=30s ./internal/dtw/
	$(GO) test -run=NONE -fuzz=FuzzDurableRecovery -fuzztime=30s ./internal/platform/
	$(GO) test -run=NONE -fuzz=FuzzDecodeJSON -fuzztime=30s ./internal/mcs/

# Ingestion throughput benchmark: 32 concurrent submitters against a
# durable store, group commit with no linger vs a 2ms linger vs batched
# submits; replicated to one follower in async, semi-sync and semi-sync
# with mcsplatform's compaction defaults (with the primary's compactions
# and snapshot ships per 1,000 acks); plus the sharded variant routing
# the same load across 1/2/4 durable shards in process, and across three
# durable shards over HTTP (BenchmarkIngestShardedHTTP, the router hop,
# with the connections the shards accepted per 1,000 acks). Emits the raw
# test2json stream to BENCH_ingest.json for trend tracking; the
# human-readable table goes to stdout as usual.
bench-ingest:
	$(GO) test -run '^$$' -bench BenchmarkIngest -benchtime=2s -json ./internal/platform/... | tee BENCH_ingest.json | \
		grep -o '"Output":".*acked-submits/sec[^"]*"' | sed 's/"Output":"//;s/\\t/\t/g;s/\\n"//' || true

# Truth-stream fan-out benchmark: pushed updates/sec and latest-wins drop
# rate at 1, 100, and 1000 draining subscribers. Emits the raw test2json
# stream to BENCH_stream.json for trend tracking, mirroring bench-ingest.
bench-stream:
	$(GO) test -run '^$$' -bench BenchmarkStream -benchtime=2s -json ./internal/platform/ | tee BENCH_stream.json | \
		grep -o '"Output":".*pushed-updates/sec[^"]*"' | sed 's/"Output":"//;s/\\t/\t/g;s/\\n"//' || true
