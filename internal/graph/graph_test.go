package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestConnectedComponents(t *testing.T) {
	uf := NewUnionFind(7)
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(3, 4)
	// 5 and 6 isolated.
	got := uf.Components()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	if got := NewUnionFind(0).Components(); len(got) != 0 {
		t.Errorf("components of empty graph = %v", got)
	}
	if NewUnionFind(-5).Count() != 0 {
		t.Error("negative n should clamp to 0")
	}
}

func TestConnectedComponentsCycle(t *testing.T) {
	uf := NewUnionFind(4)
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(2, 0)
	uf.Union(2, 3)
	got := uf.Components()
	if len(got) != 1 || len(got[0]) != 4 {
		t.Errorf("cycle components = %v, want one of size 4", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count = %d, want 5", uf.Count())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(0, 1) {
		t.Error("repeat union should not merge")
	}
	uf.Union(1, 2)
	if uf.Count() != 3 {
		t.Errorf("count = %d, want 3", uf.Count())
	}
	if uf.Find(0) != uf.Find(2) {
		t.Error("0 and 2 should share a root")
	}
	if uf.Find(3) == uf.Find(0) {
		t.Error("3 should be separate")
	}
	comps := uf.Components()
	want := [][]int{{0, 1, 2}, {3}, {4}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

// dfsComponents is an independent reference for union-find components: an
// iterative depth-first search over adjacency lists, with components
// sorted and ordered by smallest vertex.
func dfsComponents(adj [][]int) [][]int {
	visited := make([]bool, len(adj))
	var components [][]int
	for start := range adj {
		if visited[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		components = append(components, comp)
	}
	return components
}

// Property: DFS components and union-find components agree on random graphs,
// and always form a partition of the vertex set.
func TestComponentsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		adj := make([][]int, n)
		uf := NewUnionFind(n)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			uf.Union(u, v)
		}
		a := dfsComponents(adj)
		b := uf.Components()
		if !reflect.DeepEqual(a, b) {
			return false
		}
		// Partition check.
		seen := make([]bool, n)
		for _, comp := range a {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
