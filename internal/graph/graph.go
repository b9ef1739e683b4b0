// Package graph provides the component substrate of the threshold grouping
// methods (AG-TS, AG-TR and their combination): a union-find over account
// indices, into which the groupers union each threshold-graph edge as they
// find it, so the graph itself is never materialized.
package graph

// UnionFind is a disjoint-set forest with union by rank and path halving.
// It is not safe for concurrent use.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	if n < 0 {
		n = 0
	}
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Components returns the sets as sorted slices, ordered by smallest member.
// One ascending scan numbers each root the first time it is met, so a set's
// slot follows its smallest member and its members arrive in order; the
// members of all sets share one backing array.
func (uf *UnionFind) Components() [][]int {
	slot := make([]int, len(uf.parent)) // root → its set's slot + 1
	sizes := make([]int, 0, uf.count)
	for i := range uf.parent {
		r := uf.Find(i)
		if slot[r] == 0 {
			sizes = append(sizes, 0)
			slot[r] = len(sizes)
		}
		sizes[slot[r]-1]++
	}
	comps := make([][]int, len(sizes))
	members := make([]int, len(uf.parent))
	for c, size := range sizes {
		comps[c], members = members[:0:size], members[size:]
	}
	for i := range uf.parent {
		c := slot[uf.Find(i)] - 1
		comps[c] = append(comps[c], i)
	}
	return comps
}
