package grouping

import (
	"context"
	"fmt"
	"math"
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
// is computed for every pair, pairs strictly below Phi become graph edges,
// and connected components become groups; accounts with no observations
// are never grouped. It defends against Attack-II even when most accounts
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

// dissimilarity is Eq. (8) over two accounts' task series x and timestamp
// series y, through a caller-owned Calculator so the pair pass reuses DP
// buffers. Dissimilarity and the grouping edge rule both call it, so the
// public measure and the grouping cannot drift apart.
func (g AGTR) dissimilarity(c *dtw.Calculator, xi, yi, xj, yj []float64) float64 {
	if len(xi) == 0 || len(xj) == 0 {
		return math.Inf(1)
	}
	if g.Mode == TRAbsolute {
		return c.AbsoluteCost(xi, xj) + c.AbsoluteCost(yi, yj)
	}
	return c.Distance(xi, xj) + c.Distance(yi, yj)
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
	if ds == nil {
		return Grouping{}, ErrNilDataset
	}
	n := ds.NumAccounts()
	if n == 0 {
		return Grouping{}, nil
	}
	phi := g.Phi
	if phi == 0 && !g.PhiSet {
		phi = DefaultPhi
	}

	// Precompute the series once; the pair pass is O(n²) DTW calls, run
	// with one DTW calculator per worker. A pair with dissimilarity
	// strictly below φ is an edge. The distance_matrix_seconds timer
	// covers this pair pass (perfbench reports it as dtw_matrix_ms).
	origin, unit := g.timeAxis(ds)
	taskSeries := make([][]float64, n)
	timeSeries := make([][]float64, n)
	for i := 0; i < n; i++ {
		taskSeries[i], timeSeries[i] = g.Series(ds, i, origin, unit)
	}
	sw := obs.Default().Timer("grouping.agtr.distance_matrix_seconds").Start()
	uf, err := unionEdges(ctx, n, func() func(i, j int) bool {
		calc := dtw.NewCalculator()
		return func(i, j int) bool {
			return g.dissimilarity(calc, taskSeries[i], timeSeries[i], taskSeries[j], timeSeries[j]) < phi
		}
	})
	sw.Stop()
	if err != nil {
		return Grouping{}, fmt.Errorf("grouping: AG-TR cancelled: %w", err)
	}
	sw = obs.Default().Timer("grouping.agtr.components_seconds").Start()
	grp := fromComponents(uf.Components())
	sw.Stop()
	return grp, nil
}

var (
	_ Grouper        = AGTR{}
	_ ContextGrouper = AGTR{}
)
