// Package grouping implements the paper's three account grouping methods
// (§IV-C) — AG-FP (device fingerprints), AG-TS (accomplished task sets),
// and AG-TR (trajectories) — plus the combination operator the paper leaves
// as future work. Each method partitions the accounts of a dataset into
// groups of accounts likely controlled by the same user; the
// Sybil-resistant framework (internal/core) then treats each group as a
// single data source.
package grouping

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sybiltd/internal/graph"
	"sybiltd/internal/mcs"
	"sybiltd/internal/parallel"
)

// ErrNilDataset is returned when Group receives a nil dataset.
var ErrNilDataset = errors.New("grouping: nil dataset")

// Grouping is a partition of account indices: every account index of the
// dataset appears in exactly one group.
type Grouping struct {
	Groups [][]int
}

// Labels converts the partition to a label vector of length n: accounts in
// the same group share a label.
func (g Grouping) Labels(n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for gi, members := range g.Groups {
		for _, a := range members {
			if a >= 0 && a < n {
				labels[a] = gi
			}
		}
	}
	next := len(g.Groups)
	for i, l := range labels {
		if l == -1 {
			labels[i] = next
			next++
		}
	}
	return labels
}

// NumGroups returns the number of groups.
func (g Grouping) NumGroups() int { return len(g.Groups) }

// GroupOf returns the group index containing account a, or -1.
func (g Grouping) GroupOf(a int) int {
	for gi, members := range g.Groups {
		for _, m := range members {
			if m == a {
				return gi
			}
		}
	}
	return -1
}

// Validate checks that the grouping is a partition of 0..n-1.
func (g Grouping) Validate(n int) error {
	seen := make([]bool, n)
	for gi, members := range g.Groups {
		if len(members) == 0 {
			return fmt.Errorf("grouping: group %d is empty", gi)
		}
		for _, a := range members {
			if a < 0 || a >= n {
				return fmt.Errorf("grouping: group %d contains out-of-range account %d", gi, a)
			}
			if seen[a] {
				return fmt.Errorf("grouping: account %d appears in multiple groups", a)
			}
			seen[a] = true
		}
	}
	for a, s := range seen {
		if !s {
			return fmt.Errorf("grouping: account %d not covered", a)
		}
	}
	return nil
}

// normalize sorts members within groups and groups by smallest member so
// that equal partitions compare equal.
func (g *Grouping) normalize() {
	for _, members := range g.Groups {
		sort.Ints(members)
	}
	sort.Slice(g.Groups, func(i, j int) bool {
		if len(g.Groups[i]) == 0 || len(g.Groups[j]) == 0 {
			return len(g.Groups[j]) == 0
		}
		return g.Groups[i][0] < g.Groups[j][0]
	})
}

// fromComponents converts connected components (which already cover every
// account) into a normalized Grouping.
func fromComponents(components [][]int) Grouping {
	g := Grouping{Groups: components}
	g.normalize()
	return g
}

// unionEdges is the pair pass of the threshold groupers (AG-TS, AG-TR and
// Combo): every account pair i < j goes once through an edge predicate on
// the parallel.Pairwise worker pool, and each accepted pair is unioned
// into one union-find as it is found, so neither the pair values nor the
// graph are ever materialized. setup builds one predicate per worker, so
// it may own scratch buffers. Unions take a mutex, which stays cold
// because edges are rare. The components of an edge set do not depend on
// the order its edges are found in, so the partition is identical at any
// GOMAXPROCS.
func unionEdges(ctx context.Context, n int, setup func() func(i, j int) bool) (*graph.UnionFind, error) {
	uf := graph.NewUnionFind(n)
	var mu sync.Mutex
	err := parallel.Pairwise(ctx, n, func() func(i, j int) {
		edge := setup()
		return func(i, j int) {
			if edge(i, j) {
				mu.Lock()
				uf.Union(i, j)
				mu.Unlock()
			}
		}
	})
	return uf, err
}

// Grouper is an account grouping method: the AG(D, F) step of Algorithm 2.
type Grouper interface {
	// Name returns a short identifier such as "AG-FP".
	Name() string
	// Group partitions the dataset's accounts.
	Group(ds *mcs.Dataset) (Grouping, error)
}

// ContextGrouper is a Grouper whose pairwise/clustering work can be
// cancelled mid-flight. GroupContext must return promptly (with ctx's
// error, possibly wrapped) once ctx is done; work already scheduled on a
// worker pool is abandoned cooperatively, never leaked.
type ContextGrouper interface {
	Grouper
	// GroupContext is Group under a cancellation context.
	GroupContext(ctx context.Context, ds *mcs.Dataset) (Grouping, error)
}

// GroupWithContext partitions ds with g, honoring ctx when g implements
// ContextGrouper. Groupers without context support run to completion; the
// context is only checked before the call, so callers that need a hard
// bound should prefer context-aware groupers (AG-FP, AG-TS, AG-TR all
// are).
func GroupWithContext(ctx context.Context, g Grouper, ds *mcs.Dataset) (Grouping, error) {
	if cg, ok := g.(ContextGrouper); ok {
		return cg.GroupContext(ctx, ds)
	}
	if err := ctx.Err(); err != nil {
		return Grouping{}, err
	}
	return g.Group(ds)
}

// Singletons returns the trivial grouping in which every account is alone —
// under it, the Sybil-resistant framework degenerates to plain truth
// discovery. Useful as a baseline and for tests.
func Singletons(n int) Grouping {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return Grouping{Groups: groups}
}
