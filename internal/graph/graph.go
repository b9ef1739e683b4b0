// Package graph provides the component substrate of the threshold grouping
// methods (AG-TS, AG-TR and their combination): a union-find over account
// indices, into which the groupers union each threshold-graph edge as they
// find it, so the graph itself is never materialized.
package graph

import "sort"

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
func (uf *UnionFind) Components() [][]int {
	byRoot := make(map[int][]int)
	for i := range uf.parent {
		r := uf.Find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	comps := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Ints(members)
		comps = append(comps, members)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}
