// Command perfbench measures the MCS platform end to end: a 3×2
// semi-sync fleet (three replica groups of a primary and a follower,
// behind the shard router) runs in process over real loopback HTTP with
// every node journaling to its own WAL, and closed-loop clients drive one
// named workload against the router for a fixed time.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload submit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics (latency percentiles, throughput, set-up time);
// with --trace 1 the same workload runs with outside-in span recording
// and the JSON carries the per-layer breakdown instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

const (
	// setups is how many times a run builds (and, but for the last, tears
	// down) the fleet; setup_s is their median.
	setups = 11
	warmup = time.Second
	// buildDir holds everything a run writes, inside the checkout.
	buildDir = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload name: submit, batch or agtr")
	seed := flags.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flags.Int("seconds", 10, "measured seconds")
	trace := flags.Int("trace", 0, "1 records the per-layer trace instead of the end-to-end metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (submit, batch, agtr), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: inputs: %v\n", err)
		return 1
	}
	res, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measure sets the fleet up (timed, several times), warms it up, runs the
// workload's clients for d, and checks the outcome.
func measure(w workload, name string, seed int64, d time.Duration, traced bool) (result, error) {
	ctx := context.Background()
	dataDir, err := filepath.Abs(filepath.Join(buildDir, "data", strconv.Itoa(os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dataDir)

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var f *fleet
	setupSeconds := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return result{}, fmt.Errorf("tear down set-up %d: %w", i-1, err)
			}
		}
		start := time.Now()
		f, err = startFleet(ctx, filepath.Join(dataDir, strconv.Itoa(i)), w.tasks(), rec)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := w.load(ctx, platform.NewClient(f.url)); err != nil {
			f.close()
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupSeconds = append(setupSeconds, time.Since(start).Seconds())
	}
	defer f.close()
	if err := w.begin(ctx, platform.NewClient(f.url)); err != nil {
		return result{}, err
	}

	lg := newLoadGen(w, f.url, rec)
	defer lg.close()
	lg.run(ctx, warmup)
	if rec != nil {
		rec.reset()
	}
	before := obs.Default().Snapshot()
	stats := lg.run(ctx, d)
	after := obs.Default().Snapshot()

	verr := w.verify(ctx, f)
	if verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: verify: %v\n", verr)
	}
	if stats.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, first: %v\n", stats.failed, stats.attempted, stats.firstErr)
	}
	res := result{
		Correct:   verr == nil && stats.wrong == 0,
		Attempted: stats.attempted,
		Failed:    stats.failed,
		Metrics:   map[string]metric{},
	}
	sort.Float64s(stats.latencies)
	fmt.Printf("workload=%s seed=%d ops=%d failed=%d elapsed=%.3fs p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms setups=%.4f\n",
		name, seed, stats.attempted, stats.failed, stats.elapsed.Seconds(),
		quantile(stats.latencies, 0.50), quantile(stats.latencies, 0.90), quantile(stats.latencies, 0.95), quantile(stats.latencies, 0.99), setupSeconds)
	if !traced {
		res.Metrics["latency_p50_ms"] = metric{quantile(stats.latencies, 0.50), "ms"}
		res.Metrics["latency_p95_ms"] = metric{quantile(stats.latencies, 0.95), "ms"}
		res.Metrics["ops_per_s"] = metric{float64(stats.attempted-stats.failed) / stats.elapsed.Seconds(), "1/s"}
		sort.Float64s(setupSeconds)
		res.Metrics["setup_s"] = metric{setupSeconds[len(setupSeconds)/2], "s"}
		return res, nil
	}
	spans := rec.take()
	if err := writeChromeTrace(filepath.Join(buildDir, "traces", name+".json"), spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
	}
	for k, m := range layerMetrics(attribute(spans), before, after) {
		res.Metrics[k] = m
	}
	return res, nil
}

// quantile reads the p-quantile of sorted by nearest rank.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// loadGen runs the workload's closed-loop clients. Each client is one
// device with its own keep-alive connection to the router; a client sends
// its next operation only once the previous one has been answered.
type loadGen struct {
	w          workload
	rec        *recorder
	clients    []*platform.Client
	transports []*http.Transport
}

func newLoadGen(w workload, url string, rec *recorder) *loadGen {
	lg := &loadGen{w: w, rec: rec}
	for c := 0; c < w.clients(); c++ {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &tracingTransport{rec: rec, base: tr, layer: layerClient}
		}
		lg.transports = append(lg.transports, tr)
		lg.clients = append(lg.clients, platform.NewClient(url, platform.WithHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: rt})))
	}
	return lg
}

func (lg *loadGen) close() {
	for _, tr := range lg.transports {
		tr.CloseIdleConnections()
	}
}

type runStats struct {
	attempted, failed, wrong int
	firstErr                 error
	latencies                []float64 // ms, successful operations
	elapsed                  time.Duration
}

// run drives every client until d has passed; the operation in flight at
// the deadline completes and counts.
func (lg *loadGen) run(ctx context.Context, d time.Duration) runStats {
	var (
		mu    sync.Mutex
		stats runStats
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := range lg.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local runStats
			for time.Now().Before(deadline) {
				octx := ctx
				var s span
				if lg.rec != nil {
					s = span{layer: layerClient, node: -1, req: lg.rec.nextReq.Add(1)}
					octx = withRequest(ctx, s.req)
					s.start = lg.rec.now()
				}
				t0 := time.Now()
				err := lg.w.op(octx, lg.clients[c], c)
				lat := time.Since(t0)
				local.attempted++
				if err != nil {
					local.failed++
					if errors.Is(err, errWrong) {
						local.wrong++
					}
					if local.firstErr == nil {
						local.firstErr = err
					}
					continue
				}
				local.latencies = append(local.latencies, float64(lat.Nanoseconds())/1e6)
				if lg.rec != nil {
					s.end = lg.rec.now()
					lg.rec.add(s)
				}
			}
			mu.Lock()
			stats.attempted += local.attempted
			stats.failed += local.failed
			stats.wrong += local.wrong
			if stats.firstErr == nil {
				stats.firstErr = local.firstErr
			}
			stats.latencies = append(stats.latencies, local.latencies...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return stats
}

// layerMetrics turns the trace breakdown and the platform's own registry
// deltas over the measured window into the per-layer metrics.
func layerMetrics(b breakdown, before, after obs.Snapshot) map[string]metric {
	ops := float64(max(b.ops, 1))
	ms := func(nanos int64) float64 { return float64(nanos) / 1e6 / ops }
	var total int64
	for _, v := range b.exclusive {
		total += v
	}
	meanMS := func(nanos int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(nanos) / 1e6 / float64(n)
	}
	// timerMS is the mean of a registry timer over the window, in ms.
	timerMS := func(names ...string) float64 {
		var sum float64
		var n int64
		for _, name := range names {
			sum += after.Histograms[name].Sum - before.Histograms[name].Sum
			n += after.Histograms[name].Count - before.Histograms[name].Count
		}
		if n == 0 {
			return 0
		}
		return sum * 1e3 / float64(n)
	}
	histMean := func(name string) float64 {
		h0, h1 := before.Histograms[name], after.Histograms[name]
		if h1.Count == h0.Count {
			return 0
		}
		return (h1.Sum - h0.Sum) / float64(h1.Count-h0.Count)
	}
	perOp := func(counter string) float64 {
		return float64(after.Counters[counter]-before.Counters[counter]) / ops
	}
	return map[string]metric{
		"client_ms":             {ms(total), "ms"},
		"client_side_ms":        {ms(b.exclusive[layerClient]), "ms"},
		"router_ms":             {ms(b.exclusive[layerRouter]), "ms"},
		"hop_ms":                {ms(b.exclusive[layerHop]), "ms"},
		"shard_ms":              {ms(b.exclusive[layerShard]), "ms"},
		"repl_wait_ms":          {ms(b.exclusive[layerShip]), "ms"},
		"snapshot_wait_ms":      {ms(b.exclusive[layerSnapshot]), "ms"},
		"fsync_wait_ms":         {ms(b.exclusive[layerFsync]), "ms"},
		"hops_per_op":           {float64(b.hops) / ops, "count"},
		"hop_kib_per_op":        {float64(b.hopBytes) / 1024 / ops, "KiB"},
		"fsyncs_per_op":         {float64(b.fsyncs) / ops, "count"},
		"fsync_ms":              {meanMS(b.fsyncNanos, b.fsyncs), "ms"},
		"ships_per_op":          {float64(b.ships) / ops, "count"},
		"follower_apply_ms":     {meanMS(b.applyNanos, b.applies), "ms"},
		"commit_records":        {histMean("wal.group_commit_records"), "count"},
		"wal_snapshot_ms":       {timerMS("wal.snapshot_seconds"), "ms"},
		"snapshot_ships_per_op": {perOp("repl.snapshot_ships"), "count"},
		"aggregate_ms":          {timerMS("platform.aggregate_seconds"), "ms"},
		"grouping_ms":           {timerMS("framework.grouping_seconds"), "ms"},
		"dtw_matrix_ms":         {timerMS("grouping.agtr.distance_matrix_seconds"), "ms"},
		"truth_loop_ms":         {timerMS("framework.truth_loop_seconds"), "ms"},
	}
}
