package grouping

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
// with T=0, L=|other's tasks|. It is NaN when either account reports a
// task outside [0, m), which Group rejects with an error.
func (g AGTS) Affinity(ds *mcs.Dataset, i, j int) float64 {
	both, alone, err := g.Overlap(ds, i, j)
	if err != nil {
		return math.NaN()
	}
	return affinity(both, alone, ds.NumTasks())
}

// Overlap returns the T and L of Eq. (6) for accounts i and j of ds: the
// number of tasks both reported and the number exactly one reported. It
// counts them the way Group does, by popcount over task bitsets, and
// returns an error when either account reports a task outside [0, m).
func (AGTS) Overlap(ds *mcs.Dataset, i, j int) (both, alone int, err error) {
	m := ds.NumTasks()
	bi, err := taskBits(&ds.Accounts[i], m)
	if err != nil {
		return 0, 0, err
	}
	bj, err := taskBits(&ds.Accounts[j], m)
	if err != nil {
		return 0, 0, err
	}
	both, alone = overlap(bi, bj)
	return both, alone, nil
}

// taskBits returns a's task set as a bitset over m tasks: bit t%64 of word
// t/64 is set when a reported task t.
func taskBits(a *mcs.Account, m int) ([]uint64, error) {
	set := make([]uint64, (m+63)/64)
	for _, o := range a.Observations {
		if o.Task < 0 || o.Task >= m {
			return nil, fmt.Errorf("grouping: AG-TS: account %q reports task %d outside [0,%d)", a.ID, o.Task, m)
		}
		set[o.Task/64] |= 1 << (o.Task % 64)
	}
	return set, nil
}

// overlap returns T = popcount(a&b), the tasks both bitsets hold, and
// L = popcount(a^b), the tasks exactly one holds: the same integers a
// count over task sets gives, so Eq. (6) keeps every bit.
func overlap(a, b []uint64) (both, alone int) {
	for w := range a {
		both += bits.OnesCount64(a[w] & b[w])
		alone += bits.OnesCount64(a[w] ^ b[w])
	}
	return both, alone
}

// affinity is Eq. (6) for T = both and L = alone in a campaign of m tasks,
// and 0 when there are no tasks. Affinity and the grouping edge rule both
// call it.
func affinity(both, alone, m int) float64 {
	if m == 0 {
		return 0
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
	sets := make([][]uint64, n)
	for i := range ds.Accounts {
		var err error
		if sets[i], err = taskBits(&ds.Accounts[i], m); err != nil {
			return Grouping{}, err
		}
	}
	// A pair with affinity strictly above ρ is an edge. The
	// affinity_matrix_seconds timer covers this pair pass.
	sw := obs.Default().Timer("grouping.agts.affinity_matrix_seconds").Start()
	uf, err := unionEdges(ctx, n, func() func(i, j int) bool {
		return func(i, j int) bool {
			both, alone := overlap(sets[i], sets[j])
			return affinity(both, alone, m) > rho
		}
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
