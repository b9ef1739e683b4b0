package grouping

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"sybiltd/internal/mcs"
)

// CombineMode selects how Combo merges the verdicts of its members.
// The paper lists combining the grouping methods as future work (§IV-C
// Remarks); Combo implements the three natural lattice operations on
// partitions.
type CombineMode int

const (
	// CombineIntersect groups two accounts only when every member method
	// groups them (the meet of the partitions). It minimizes false
	// positives at the cost of recall.
	CombineIntersect CombineMode = iota + 1
	// CombineUnion groups two accounts when any member method groups them
	// (the join of the partitions: connected components of the union of
	// co-membership graphs). It maximizes recall.
	CombineUnion
	// CombineMajority groups two accounts when strictly more than half of
	// the member methods group them, then takes the transitive closure.
	CombineMajority
)

// String returns a short mode label.
func (m CombineMode) String() string {
	switch m {
	case CombineIntersect:
		return "intersect"
	case CombineUnion:
		return "union"
	case CombineMajority:
		return "majority"
	default:
		return fmt.Sprintf("CombineMode(%d)", int(m))
	}
}

// Combo combines several grouping methods into one (the paper's future
// work). Member methods run independently; their pairwise co-membership
// verdicts are merged according to Mode.
type Combo struct {
	Members []Grouper
	Mode    CombineMode
}

// Name implements Grouper, e.g. "AG-Combo[intersect:AG-FP+AG-TR]".
func (c Combo) Name() string {
	names := make([]string, len(c.Members))
	for i, m := range c.Members {
		names[i] = m.Name()
	}
	return fmt.Sprintf("AG-Combo[%s:%s]", c.Mode, strings.Join(names, "+"))
}

// Group implements Grouper.
func (c Combo) Group(ds *mcs.Dataset) (Grouping, error) {
	return c.GroupContext(context.Background(), ds)
}

// GroupContext implements ContextGrouper: cancellation is forwarded to
// every member that supports it, checked between members, and honored by
// the parallel pass that merges the members' pair verdicts.
func (c Combo) GroupContext(ctx context.Context, ds *mcs.Dataset) (Grouping, error) {
	if ds == nil {
		return Grouping{}, ErrNilDataset
	}
	if len(c.Members) == 0 {
		return Grouping{}, errors.New("grouping: Combo has no members")
	}
	mode := c.Mode
	if mode == 0 {
		mode = CombineIntersect
	}
	n := ds.NumAccounts()
	labelings := make([][]int, len(c.Members))
	for mi, member := range c.Members {
		g, err := GroupWithContext(ctx, member, ds)
		if err != nil {
			return Grouping{}, fmt.Errorf("grouping: combo member %s: %w", member.Name(), err)
		}
		labelings[mi] = g.Labels(n)
	}

	together := func(i, j int) bool {
		votes := 0
		for _, labels := range labelings {
			if labels[i] == labels[j] {
				votes++
			}
		}
		switch mode {
		case CombineUnion:
			return votes > 0
		case CombineMajority:
			return 2*votes > len(labelings)
		default: // CombineIntersect
			return votes == len(labelings)
		}
	}

	uf, err := unionEdges(ctx, n, func() func(i, j int) bool { return together })
	if err != nil {
		return Grouping{}, fmt.Errorf("grouping: combo cancelled: %w", err)
	}
	return fromComponents(uf.Components()), nil
}

var (
	_ Grouper        = Combo{}
	_ ContextGrouper = Combo{}
)
