package grouping

import (
	"context"
	"fmt"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
)

// DefaultRho is the affinity threshold the paper uses in its worked
// example (ρ = 1).
const DefaultRho = 1.0

// AGTS groups accounts by accomplished task set (§IV-C, "Account Grouping
// by Task Set"): the affinity of Eq. (6),
//
//	A(i,j) = (T_ij − 2·L_ij) · (T_ij + L_ij) / m,
//
// where T_ij counts tasks both i and j performed and L_ij counts tasks
// exactly one of them performed, is computed for every account pair; pairs
// with affinity strictly above Rho become edges of an undirected graph, and
// each connected component is one group. Accounts in no component are
// singleton groups. It defends against Attack-II in campaigns where
// accounts have diverse task sets.
type AGTS struct {
	// Rho is the affinity threshold. Zero means DefaultRho. Edges require
	// affinity > Rho, matching the paper's strict inequality.
	Rho float64
	// RhoSet forces Rho to be used verbatim even when zero; set it when an
	// explicit threshold of 0 is wanted.
	RhoSet bool
}

// Name implements Grouper.
func (AGTS) Name() string { return "AG-TS" }

// Affinity returns the Eq. (6) affinity between accounts i and j of ds.
// m is taken from the dataset. Accounts with no observations have affinity
// with T=0, L=|other's tasks|.
func (AGTS) Affinity(ds *mcs.Dataset, i, j int) float64 {
	return affinity(ds.Accounts[i].TaskSet(), ds.Accounts[j].TaskSet(), ds.NumTasks())
}

// affinity is Eq. (6) over two task sets in a campaign of m tasks, and 0
// when there are no tasks. Affinity and the grouping edge rule both call
// it.
func affinity(si, sj map[int]bool, m int) float64 {
	if m == 0 {
		return 0
	}
	var both, alone int
	for t := range si {
		if sj[t] {
			both++
		} else {
			alone++
		}
	}
	for t := range sj {
		if !si[t] {
			alone++
		}
	}
	return float64(both-2*alone) * float64(both+alone) / float64(m)
}

// Group implements Grouper.
func (g AGTS) Group(ds *mcs.Dataset) (Grouping, error) {
	return g.GroupContext(context.Background(), ds)
}

// GroupContext implements ContextGrouper: the O(n²) affinity pair pass
// stops handing out pairs once ctx is done and the context error is
// returned.
func (g AGTS) GroupContext(ctx context.Context, ds *mcs.Dataset) (Grouping, error) {
	if ds == nil {
		return Grouping{}, ErrNilDataset
	}
	n := ds.NumAccounts()
	if n == 0 {
		return Grouping{}, nil
	}
	rho := g.Rho
	if rho == 0 && !g.RhoSet {
		rho = DefaultRho
	}
	m := ds.NumTasks()
	sets := make([]map[int]bool, n)
	for i := range ds.Accounts {
		sets[i] = ds.Accounts[i].TaskSet()
	}
	// A pair with affinity strictly above ρ is an edge. The
	// affinity_matrix_seconds timer covers this pair pass.
	sw := obs.Default().Timer("grouping.agts.affinity_matrix_seconds").Start()
	uf, err := unionEdges(ctx, n, func() func(i, j int) bool {
		return func(i, j int) bool { return affinity(sets[i], sets[j], m) > rho }
	})
	sw.Stop()
	if err != nil {
		return Grouping{}, fmt.Errorf("grouping: AG-TS cancelled: %w", err)
	}
	sw = obs.Default().Timer("grouping.agts.components_seconds").Start()
	grp := fromComponents(uf.Components())
	sw.Stop()
	return grp, nil
}

var (
	_ Grouper        = AGTS{}
	_ ContextGrouper = AGTS{}
)
