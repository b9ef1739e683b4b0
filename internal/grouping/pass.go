package grouping

import (
	"time"
	"unsafe"

	"sybiltd/internal/mcs"
)

// Pass is what an AG-TR grouping pass keeps for the next one (see
// AGTR.GroupPass): the pass-wide values every edge depends on besides its
// two accounts, each account's ID and (task, time) sequence, copied from
// the dataset, and the partition the pass found. The next pass over the
// same accounts in the same order, each with the same sequence, would test
// every pair on the same series, so it returns the kept partition and
// tests none; any other dataset gets a full pass. A Pass is immutable once
// returned, so concurrent passes may start from the same one, and it
// shares no mutable memory with the dataset it was made from.
//
// Its memory is O(reports + accounts), whatever the edge count: per
// account an ID, an offset and a partition slot, per report a task and a
// time (see Bytes).
type Pass struct {
	key    trKey
	ids    []string
	start  []int    // account i's sequence is marks[start[i]:start[i+1]]
	marks  []trMark // every account's (task, time) sequence, in order
	groups [][]int  // the partition
}

// trKey holds the pass-wide values every AG-TR edge depends on besides
// its two accounts: φ, the DTW mode and the time axis.
type trKey struct {
	phi      float64
	absolute bool
	origin   time.Time
	unit     time.Duration
}

// same reports whether k and o give every pair the same test. The origin,
// the earliest timestamp, compares as the timestamps do (see sameTime).
func (k trKey) same(o trKey) bool {
	return k.phi == o.phi && k.absolute == o.absolute && k.unit == o.unit && sameTime(k.origin, o.origin)
}

// trMark is one observation as an AG-TR pass reads it.
type trMark struct {
	task int
	at   time.Time
}

// newPass keeps key, the accounts of ds and grp, the partition a pass over
// ds found.
func newPass(key trKey, ds *mcs.Dataset, grp Grouping) *Pass {
	n, reports := len(ds.Accounts), 0
	for i := range ds.Accounts {
		reports += len(ds.Accounts[i].Observations)
	}
	p := &Pass{key: key, ids: make([]string, n), start: make([]int, n+1), marks: make([]trMark, 0, reports)}
	for i := range ds.Accounts {
		a := &ds.Accounts[i]
		p.ids[i] = a.ID
		for _, o := range a.Observations {
			p.marks = append(p.marks, trMark{o.Task, o.Time})
		}
		p.start[i+1] = len(p.marks)
	}
	p.groups = copyGroups(grp.Groups, n)
	return p
}

// match reports whether p was made with key over the accounts of ds, in
// the same order, each with the (task, time) sequence p holds for it. A
// nil p matches nothing.
func (p *Pass) match(key trKey, ds *mcs.Dataset) bool {
	if p == nil || !p.key.same(key) || len(p.ids) != len(ds.Accounts) {
		return false
	}
	for i := range ds.Accounts {
		a := &ds.Accounts[i]
		kept := p.marks[p.start[i]:p.start[i+1]]
		if a.ID != p.ids[i] || len(a.Observations) != len(kept) {
			return false
		}
		for k, o := range a.Observations {
			if o.Task != kept[k].task || !sameTime(o.Time, kept[k].at) {
				return false
			}
		}
	}
	return true
}

// sameTime reports whether two timestamps give the same series bits. The
// series read them only through Before and Sub, which compare instants
// unless both times carry a monotonic clock reading; so two times without
// one match when they are Equal, whatever their Location (a decoder that
// builds a new zone per timestamp must not make an account look changed),
// and a time with one matches only itself.
func sameTime(t, u time.Time) bool {
	return t == u || t.Equal(u) && t.Round(0) == t && u.Round(0) == u
}

// copyGroups returns a copy of groups, a partition of n accounts, whose
// members share one backing array.
func copyGroups(groups [][]int, n int) [][]int {
	out := make([][]int, len(groups))
	members := make([]int, 0, n)
	for gi, g := range groups {
		members = append(members, g...)
		out[gi] = members[len(members)-len(g) : len(members) : len(members)]
	}
	return out
}

// Bytes returns the memory the pass references: its slices, the bytes of
// its IDs and the members of its partition.
func (p *Pass) Bytes() int {
	if p == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*p)) + cap(p.ids)*int(unsafe.Sizeof("")) + cap(p.start)*8 +
		cap(p.marks)*int(unsafe.Sizeof(trMark{})) + cap(p.groups)*int(unsafe.Sizeof([]int(nil)))
	for _, id := range p.ids {
		n += len(id)
	}
	for _, g := range p.groups {
		n += len(g) * 8
	}
	return n
}
