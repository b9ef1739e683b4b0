package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sybiltd/internal/mcs"
	"sybiltd/internal/platform"
	"sybiltd/internal/simulate"
)

// workload is one traffic mix against the fleet. Its inputs come from the
// seed alone. load runs inside each timed set-up, begin once on the fleet
// that is measured, op is one operation of one closed-loop client (client
// c's operations run in sequence, so per-client state needs no lock), and
// verify checks the fleet's state once the clients have stopped.
type workload interface {
	clients() int
	tasks() []mcs.Task
	load(ctx context.Context, router *platform.Client) error
	begin(ctx context.Context, router *platform.Client) error
	op(ctx context.Context, c *platform.Client, client int) error
	verify(ctx context.Context, f *fleet) error
}

// errWrong marks an operation whose answer was wrong, as opposed to one
// that failed.
var errWrong = errors.New("wrong answer")

// Every size below but batchClients and aggregateClients is taken from the
// repository; README.md names the source of each.
const (
	// writeClients is the concurrency of the repository's replicated ingest
	// benchmark (BenchmarkIngestReplicated: 32 submitters, semi-sync).
	writeClients = 32
	// replayBatch is the envelope size of mcsagent -batch 16 in README.md and
	// of BenchmarkIngest's batched-submit-16 case. The preload uses
	// it too, as mcsagent -replay -batch 16 would.
	replayBatch = 16
	// batchClients is an assumption, not a figure from the repository.
	// Replayed in envelopes, the fleet's ack latency has two modes: an
	// envelope either commits at once or stalls behind WAL compaction and
	// replication. With 8 clients about a tenth of envelopes stall, so p95
	// lies inside the stalled mode; with 1 or 2 it lies on the edge between
	// the modes and moves by a fifth or more from run to run. README.md
	// gives the runs.
	batchClients = 8
	// aggregateClients is an assumption too: several agents sharing one
	// platform each ask for aggregates. On two vCPUs, one client left a
	// quarter to a third of them idle and p95 read from 1.2 to 1.6 times
	// p50 from run to run; with two clients idle time fell to under a fifth
	// and the ratio held at 1.33-1.47 in 9 of 10 runs.
	aggregateClients = 2
)

// workloads are the named traffic mixes; why each exists is recorded in
// BENCHMARK.json and README.md. Every campaign is simulate.Build's, which
// defaults to the paper's: 10 POIs, 8 legitimate users and one Attack-I and
// one Attack-II attacker of 5 accounts each, at activeness 0.5.
var workloads = map[string]func(seed int64) (workload, error){
	"submit": func(seed int64) (workload, error) { return newWrites(seed, writeClients, 1) },
	"batch":  func(seed int64) (workload, error) { return newWrites(seed, batchClients, replayBatch) },
	// The campaign of BenchmarkAGTRGrouping500.
	"agtr": func(seed int64) (workload, error) {
		return newAggregates("td-tr", simulate.Config{Seed: seed, NumLegit: 490, SybilActiveness: 0.8})
	},
}

// campaign is a simulated sensing campaign as the platform receives it:
// the tasks and every report, in the order platform.ReplayDataset sends
// them (by time, then account).
type campaign struct {
	taskList []mcs.Task
	reports  []platform.SubmissionRequest
}

func newCampaign(cfg simulate.Config) (campaign, error) {
	sc, err := simulate.Build(cfg)
	if err != nil {
		return campaign{}, err
	}
	c := campaign{taskList: sc.Dataset.Tasks}
	for _, a := range sc.Dataset.Accounts {
		for _, o := range a.Observations {
			c.reports = append(c.reports, platform.SubmissionRequest{Account: a.ID, Task: o.Task, Value: o.Value, Time: o.Time})
		}
	}
	sort.SliceStable(c.reports, func(i, j int) bool {
		ri, rj := c.reports[i], c.reports[j]
		if !ri.Time.Equal(rj.Time) {
			return ri.Time.Before(rj.Time)
		}
		return ri.Account < rj.Account
	})
	return c, nil
}

func (c *campaign) tasks() []mcs.Task { return c.taskList }

// load replays the campaign through the router in sequential envelopes of
// replayBatch, so the merged dataset's account order is the same on every
// set-up.
func (c *campaign) load(ctx context.Context, router *platform.Client) error {
	for lo := 0; lo < len(c.reports); lo += replayBatch {
		chunk := c.reports[lo:min(lo+replayBatch, len(c.reports))]
		results, err := router.SubmitBatch(ctx, chunk)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, res := range results {
			if err := res.Err(); err != nil {
				return fmt.Errorf("preload %s/%d: %w", chunk[i].Account, chunk[i].Task, err)
			}
		}
	}
	return nil
}

// check reads the router's merged dataset back and requires it to hold
// exactly the campaign.
func (c *campaign) check(ctx context.Context, router *platform.Client) (*mcs.Dataset, error) {
	ds, err := router.Dataset(ctx)
	if err != nil {
		return nil, fmt.Errorf("router dataset: %w", err)
	}
	idx := indexDataset(ds)
	if len(idx) != len(c.reports) {
		return nil, fmt.Errorf("router holds %d reports, preloaded %d", len(idx), len(c.reports))
	}
	return ds, missing(idx, c.reports, "router")
}

type reportKey struct {
	account string
	task    int
}

// indexDataset maps every observation of ds to its value and time.
func indexDataset(ds *mcs.Dataset) map[reportKey]mcs.Observation {
	idx := make(map[reportKey]mcs.Observation)
	for _, a := range ds.Accounts {
		for _, o := range a.Observations {
			idx[reportKey{a.ID, o.Task}] = o
		}
	}
	return idx
}

// missing returns an error naming the first report of want that idx does
// not hold with the same value and time.
func missing(idx map[reportKey]mcs.Observation, want []platform.SubmissionRequest, where string) error {
	for _, r := range want {
		o, ok := idx[reportKey{r.Account, r.Task}]
		if !ok {
			return fmt.Errorf("%s: acknowledged report %s/%d lost", where, r.Account, r.Task)
		}
		if math.Float64bits(o.Value) != math.Float64bits(r.Value) || !o.Time.Equal(r.Time) {
			return fmt.Errorf("%s: report %s/%d reads %v@%v, acknowledged %v@%v", where, r.Account, r.Task, o.Value, o.Time, r.Value, r.Time)
		}
	}
	return nil
}

// writes preloads the paper's campaign and then has several agents
// replay it through the router, each under its own account prefix, as
// several mcsagent -replay processes sharing one platform would: single
// submits when batch is 1, SubmitBatch envelopes of batch otherwise. An
// agent that reaches the end starts the campaign again under a new
// prefix, so no report is a duplicate and none may be refused.
type writes struct {
	campaign
	batch int
	state []writerState
}

type writerState struct {
	round, next int // position in the replay
	acked       []platform.SubmissionRequest
}

func newWrites(seed int64, clients, batch int) (*writes, error) {
	c, err := newCampaign(simulate.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &writes{campaign: c, batch: batch, state: make([]writerState, clients)}, nil
}

func (w *writes) clients() int { return len(w.state) }

func (w *writes) begin(ctx context.Context, router *platform.Client) error {
	_, err := w.check(ctx, router)
	return err
}

// take returns client c's next n reports.
func (w *writes) take(c, n int) []platform.SubmissionRequest {
	st := &w.state[c]
	out := make([]platform.SubmissionRequest, n)
	for i := range out {
		r := w.reports[st.next]
		r.Account = fmt.Sprintf("a%02d-r%d-%s", c, st.round, r.Account)
		out[i] = r
		if st.next++; st.next == len(w.reports) {
			st.next, st.round = 0, st.round+1
		}
	}
	return out
}

func (w *writes) op(ctx context.Context, c *platform.Client, client int) error {
	reports := w.take(client, w.batch)
	st := &w.state[client]
	if w.batch == 1 {
		if err := c.Submit(ctx, reports[0]); err != nil {
			return err
		}
		st.acked = append(st.acked, reports[0])
		return nil
	}
	results, err := c.SubmitBatch(ctx, reports)
	if err != nil {
		return err
	}
	var first error
	for i, res := range results {
		if err := res.Err(); err != nil {
			if first == nil {
				first = fmt.Errorf("batch item %d: %w", i, err)
			}
			continue
		}
		st.acked = append(st.acked, reports[i])
	}
	return first
}

// verify checks zero acknowledged loss twice: every acknowledged report,
// the preloaded campaign's included, is in the router's merged dataset,
// and — the semi-sync contract — on the follower of the group that owns
// its account.
func (w *writes) verify(ctx context.Context, f *fleet) error {
	acked := append([]platform.SubmissionRequest(nil), w.reports...)
	for _, st := range w.state {
		acked = append(acked, st.acked...)
	}
	ds, err := platform.NewClient(f.url).Dataset(ctx)
	if err != nil {
		return fmt.Errorf("router dataset: %w", err)
	}
	if err := missing(indexDataset(ds), acked, "router"); err != nil {
		return err
	}
	owned := make([][]platform.SubmissionRequest, numGroups)
	for _, r := range acked {
		gi := f.router.Shard(r.Account)
		owned[gi] = append(owned[gi], r)
	}
	for gi := range owned {
		fds, err := f.follower(gi).Dataset(ctx)
		if err != nil {
			return fmt.Errorf("group %d follower dataset: %w", gi, err)
		}
		if err := missing(indexDataset(fds), owned[gi], fmt.Sprintf("group %d follower", gi)); err != nil {
			return err
		}
	}
	return nil
}

// aggregates asks the router for the named aggregation over a preloaded
// campaign, each client one request at a time, as mcsagent does once its
// crowd has reported. The answer must be bit-identical to platform.AggregateDataset
// run in process over the same merged dataset.
type aggregates struct {
	campaign
	method string
	want   []float64
}

func newAggregates(method string, cfg simulate.Config) (*aggregates, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return &aggregates{campaign: c, method: method}, nil
}

func (a *aggregates) clients() int { return aggregateClients }

// begin checks the preloaded campaign reads back whole and computes the
// reference answer in process.
func (a *aggregates) begin(ctx context.Context, router *platform.Client) error {
	ds, err := a.check(ctx, router)
	if err != nil {
		return err
	}
	res, _, err := platform.AggregateDataset(ctx, a.method, ds)
	if err != nil {
		return fmt.Errorf("reference %s: %w", a.method, err)
	}
	a.want = res.Truths
	return nil
}

func (a *aggregates) op(ctx context.Context, c *platform.Client, _ int) error {
	resp, err := c.Aggregate(ctx, a.method)
	if err != nil {
		return err
	}
	return a.compare(resp)
}

// compare requires resp to answer every task exactly once, bit-identical
// to the in-process reference.
func (a *aggregates) compare(resp platform.AggregateResponse) error {
	if resp.Meta.Degraded {
		return fmt.Errorf("%w: degraded (%s)", errWrong, resp.Meta.DegradedReason)
	}
	if len(resp.Truths) != len(a.want) {
		return fmt.Errorf("%w: %d truths, want %d", errWrong, len(resp.Truths), len(a.want))
	}
	seen := make([]bool, len(a.want))
	for _, tr := range resp.Truths {
		if tr.Task < 0 || tr.Task >= len(a.want) || seen[tr.Task] {
			return fmt.Errorf("%w: task %d out of range or answered twice", errWrong, tr.Task)
		}
		seen[tr.Task] = true
		want := a.want[tr.Task]
		if tr.Estimated == math.IsNaN(want) || (tr.Estimated && math.Float64bits(tr.Value) != math.Float64bits(want)) {
			return fmt.Errorf("%w: task %d reads %v (estimated %v), in-process %v", errWrong, tr.Task, tr.Value, tr.Estimated, want)
		}
	}
	return nil
}

func (a *aggregates) verify(context.Context, *fleet) error { return nil }
