package grouping

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"sybiltd/internal/dtw"
	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
)

// DefaultPhi is the dissimilarity threshold the paper uses in its worked
// example (φ = 1).
const DefaultPhi = 1.0

// TRMode selects the DTW flavor used by AG-TR.
type TRMode int

const (
	// TREq7 uses the paper's Eq. (7): squared pointwise distance, total
	// path cost divided by path length, square root. This is the default
	// and the variant used in the synthetic experiments.
	TREq7 TRMode = iota + 1
	// TRAbsolute uses the classic unnormalized absolute-distance DTW cost,
	// which is what the worked example of Fig. 4 actually tabulates.
	TRAbsolute
)

// AGTR groups accounts by trajectory (§IV-C, "Account Grouping by
// Trajectory"): each account's observations, ordered by timestamp, form a
// task series X_i (which tasks, in what order) and a timestamp series Y_i
// (when); the dissimilarity of Eq. (8),
//
//	D(i,j) = DTW(X_i, X_j) + DTW(Y_i, Y_j),
//
// decides every pair: pairs strictly below Phi become graph edges, and
// connected components become groups; accounts with no observations are
// never grouped. The pair pass computes D only for pairs that endpoint
// lower bounds on the two DTWs cannot already rule out. It defends against Attack-II even when most accounts
// perform similar task sets, because the timestamp series still separates
// independent users.
type AGTR struct {
	// Phi is the dissimilarity threshold. Zero means DefaultPhi. Edges
	// require dissimilarity < Phi (the paper's strict inequality).
	Phi float64
	// PhiSet forces Phi to be used verbatim even when zero.
	PhiSet bool
	// Mode selects the DTW flavor; zero means TREq7.
	Mode TRMode
	// TimeUnit scales the timestamp series: each timestamp becomes the
	// duration since the campaign start divided by TimeUnit. Zero means
	// 24h, which reproduces the day-fraction magnitudes of Fig. 4(b).
	TimeUnit time.Duration
}

// Name implements Grouper.
func (AGTR) Name() string { return "AG-TR" }

// Series returns account ai's task series and timestamp series. Tasks are
// numbered from 1 (as in the paper's example); timestamps are offsets from
// origin in units of unit.
func (g AGTR) Series(ds *mcs.Dataset, ai int, origin time.Time, unit time.Duration) (tasks, times []float64) {
	obs := ds.Accounts[ai].SortedObservations()
	tasks = make([]float64, len(obs))
	times = make([]float64, len(obs))
	for k, o := range obs {
		tasks[k] = float64(o.Task + 1)
		times[k] = float64(o.Time.Sub(origin)) / float64(unit)
	}
	return tasks, times
}

// Dissimilarity returns the Eq. (8) dissimilarity between accounts i and j.
// It is +Inf when either account has no observations: without trajectory
// evidence an account is never grouped, not even with another idle one.
func (g AGTR) Dissimilarity(ds *mcs.Dataset, i, j int) float64 {
	origin, unit := g.timeAxis(ds)
	xi, yi := g.Series(ds, i, origin, unit)
	xj, yj := g.Series(ds, j, origin, unit)
	return g.dissimilarity(dtw.NewCalculator(), xi, yi, xj, yj)
}

// timeAxis returns the origin and unit of ds's timestamp series: the
// campaign start and TimeUnit (24h when zero).
func (g AGTR) timeAxis(ds *mcs.Dataset) (time.Time, time.Duration) {
	origin, _, _ := ds.TimeSpan()
	if g.TimeUnit == 0 {
		return origin, 24 * time.Hour
	}
	return origin, g.TimeUnit
}

// trMeasure is one DTW mode of AG-TR: its DP kernel and that kernel's
// endpoint lower bound.
type trMeasure struct {
	dist  func(c *dtw.Calculator, a, b []float64) float64
	bound func(a, b dtw.Ends) float64
}

// measure returns the DTW kernel and bound of g.Mode.
func (g AGTR) measure() trMeasure {
	if g.Mode == TRAbsolute {
		return trMeasure{(*dtw.Calculator).AbsoluteCost, dtw.AbsoluteCostBound}
	}
	return trMeasure{(*dtw.Calculator).Distance, dtw.DistanceBound}
}

// dissimilarity is Eq. (8) over two accounts' task series x and timestamp
// series y, through a caller-owned Calculator. The pair pass of
// GroupContext adds the same two terms from the same measure, so the
// public Dissimilarity and the grouping cannot drift apart.
func (g AGTR) dissimilarity(c *dtw.Calculator, xi, yi, xj, yj []float64) float64 {
	if len(xi) == 0 || len(xj) == 0 {
		return math.Inf(1)
	}
	md := g.measure()
	return md.dist(c, xi, xj) + md.dist(c, yi, yj)
}

// trAccount is what the AG-TR pair pass reads of one account: its two
// series and their ends, which the endpoint bounds need.
type trAccount struct {
	tasks, times       []float64
	taskEnds, timeEnds dtw.Ends
}

// trWorker is one pair-pass worker's state: its DP buffers and its counts
// of how its pairs left the edge predicate. Workers count privately and
// each worker's counts are published once, after the pass, because a
// shared atomic per pair would cost about as much as the pruned pass
// itself.
type trWorker struct {
	calc                                 dtw.Calculator
	prunedBound, prunedTaskDTW, fullDTWs int64
}

// Group implements Grouper.
func (g AGTR) Group(ds *mcs.Dataset) (Grouping, error) {
	return g.GroupContext(context.Background(), ds)
}

// GroupContext implements ContextGrouper: the O(n²) DTW pair pass — the
// framework's hottest stage — stops handing out pairs once ctx is done and
// the context error is returned, so a request deadline can bound a
// grouping pass that would otherwise run for seconds.
func (g AGTR) GroupContext(ctx context.Context, ds *mcs.Dataset) (Grouping, error) {
	grp, _, err := g.group(ctx, ds, nil, false)
	return grp, err
}

// GroupPass is GroupContext starting from kept, a pass GroupPass returned
// earlier, and it returns the pass to keep for the next call. When kept
// was made with the same φ, Mode and TimeUnit over the same accounts in
// the same order, each with the same (task, time) sequence, its partition
// is the answer and no pair is tested (see Pass); otherwise the whole pair
// pass runs. A nil kept keeps nothing.
func (g AGTR) GroupPass(ctx context.Context, ds *mcs.Dataset, kept *Pass) (Grouping, *Pass, error) {
	return g.group(ctx, ds, kept, true)
}

// group is GroupPass; a full pass copies its input into a new Pass only
// when keep is set, so a caller that keeps nothing pays nothing for it.
func (g AGTR) group(ctx context.Context, ds *mcs.Dataset, kept *Pass, keep bool) (Grouping, *Pass, error) {
	if ds == nil {
		return Grouping{}, nil, ErrNilDataset
	}
	n := ds.NumAccounts()
	if n == 0 {
		return Grouping{}, nil, nil
	}
	phi := g.Phi
	if phi == 0 && !g.PhiSet {
		phi = DefaultPhi
	}
	origin, unit := g.timeAxis(ds)
	key := trKey{phi: phi, absolute: g.Mode == TRAbsolute, origin: origin, unit: unit}
	if kept.match(key, ds) {
		obs.Default().Counter("grouping.agtr.pairs_reused").Add(int64(n) * int64(n-1) / 2)
		return Grouping{Groups: copyGroups(kept.groups, n)}, kept, nil
	}

	// Precompute the series and their ends once; the pair pass is O(n²),
	// with one DTW calculator per worker. A pair with Eq. (8)
	// dissimilarity strictly below φ is an edge. Both DTW terms are
	// non-negative and never below their endpoint bounds, in floating
	// point too (see dtw.DistanceBound), so the predicate rejects a pair
	// at the first of these that holds, and only the pairs left run the
	// timestamp DTW:
	//   1. either account is idle (Dissimilarity is +Inf);
	//   2. the sum of the task and timestamp bounds reaches φ;
	//   3. the task DTW alone reaches φ.
	// The distance_matrix_seconds timer covers this pair pass (perfbench
	// reports it as dtw_matrix_ms).
	accts := make([]trAccount, n)
	for i := range accts {
		a := &accts[i]
		a.tasks, a.times = g.Series(ds, i, origin, unit)
		a.taskEnds, a.timeEnds = dtw.EndsOf(a.tasks), dtw.EndsOf(a.times)
	}
	md := g.measure()
	var (
		mu      sync.Mutex
		workers []*trWorker
	)
	sw := obs.Default().Timer("grouping.agtr.distance_matrix_seconds").Start()
	uf, err := unionEdges(ctx, n, func() func(i, j int) bool {
		w := new(trWorker)
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		return func(i, j int) bool {
			a, b := &accts[i], &accts[j]
			if a.taskEnds.Len == 0 || b.taskEnds.Len == 0 {
				w.prunedBound++
				return false
			}
			// A task bound that reaches φ alone spares the timestamp
			// bound: the sum of the two cannot be smaller.
			if bx := md.bound(a.taskEnds, b.taskEnds); bx >= phi || bx+md.bound(a.timeEnds, b.timeEnds) >= phi {
				w.prunedBound++
				return false
			}
			x := md.dist(&w.calc, a.tasks, b.tasks)
			if x >= phi {
				w.prunedTaskDTW++
				return false
			}
			w.fullDTWs++
			return x+md.dist(&w.calc, a.times, b.times) < phi
		}
	})
	sw.Stop()
	reg := obs.Default()
	prunedBound := reg.Counter("grouping.agtr.pairs_pruned_bound")
	prunedTaskDTW := reg.Counter("grouping.agtr.pairs_pruned_task_dtw")
	fullDTWs := reg.Counter("grouping.agtr.pairs_full_dtw")
	for _, w := range workers {
		prunedBound.Add(w.prunedBound)
		prunedTaskDTW.Add(w.prunedTaskDTW)
		fullDTWs.Add(w.fullDTWs)
	}
	if err != nil {
		return Grouping{}, nil, fmt.Errorf("grouping: AG-TR cancelled: %w", err)
	}
	sw = obs.Default().Timer("grouping.agtr.components_seconds").Start()
	grp := fromComponents(uf.Components())
	sw.Stop()
	if !keep {
		return grp, nil, nil
	}
	return grp, newPass(key, ds, grp), nil
}

var (
	_ Grouper        = AGTR{}
	_ ContextGrouper = AGTR{}
)
