package grouping

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/obs"
)

// passCampaign builds a campaign of m tasks in which leaders report on
// random tasks and each follower repeats its leader's tasks in the same
// order a few minutes later, so both threshold groupers find edges; the
// other accounts report at random.
func passCampaign(rng *rand.Rand, m int) *mcs.Dataset {
	ds := mcs.NewDataset(m)
	base := time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("acct%02d", i)
		if i%4 != 0 && rng.Intn(3) > 0 {
			lead := ds.Accounts[len(ds.Accounts)-1-rng.Intn(min(len(ds.Accounts), 2))]
			lag := time.Duration(1+rng.Intn(20)) * time.Minute
			var obs []mcs.Observation
			for _, o := range lead.Observations {
				obs = append(obs, mcs.Observation{Task: o.Task, Value: rng.NormFloat64(), Time: o.Time.Add(lag)})
			}
			ds.AddAccount(mcs.Account{ID: id, Observations: obs})
			continue
		}
		ds.AddAccount(mcs.Account{ID: id, Observations: randomTrajectory(rng, m, base)})
	}
	return ds
}

// randomTrajectory reports on a random half of m tasks, in random order,
// within a few hours of base.
func randomTrajectory(rng *rand.Rand, m int, base time.Time) []mcs.Observation {
	var obs []mcs.Observation
	at := base.Add(time.Duration(rng.Intn(180)) * time.Minute)
	for _, task := range rng.Perm(m)[:1+rng.Intn(m/2+1)] {
		at = at.Add(time.Duration(5+rng.Intn(60)) * time.Minute)
		obs = append(obs, mcs.Observation{Task: task, Value: rng.NormFloat64(), Time: at})
	}
	return obs
}

// mutatePass applies one random change to ds, in place where the change
// allows it (a kept pass must own what it compares), or to *phi, and
// names it.
func mutatePass(rng *rand.Rand, ds *mcs.Dataset, phi *float64) string {
	n := len(ds.Accounts)
	m := ds.NumTasks()
	pick := func() *mcs.Account { return &ds.Accounts[rng.Intn(n)] }
	switch op := rng.Intn(13); {
	case op == 0 || n == 0:
		at := time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)
		if n > 0 && rng.Intn(2) == 0 {
			// A follower of an existing account: a new edge.
			lead := pick()
			var obs []mcs.Observation
			for _, o := range lead.Observations {
				obs = append(obs, mcs.Observation{Task: o.Task, Time: o.Time.Add(3 * time.Minute)})
			}
			ds.AddAccount(mcs.Account{ID: fmt.Sprintf("new%d", rng.Int63()), Observations: obs})
			return "add follower"
		}
		ds.AddAccount(mcs.Account{ID: fmt.Sprintf("new%d", rng.Int63()), Observations: randomTrajectory(rng, m, at)})
		return "add account"
	case op == 1:
		i := rng.Intn(n)
		ds.Accounts = append(ds.Accounts[:i], ds.Accounts[i+1:]...)
		return "drop account"
	case op == 2:
		rng.Shuffle(n, func(i, j int) { ds.Accounts[i], ds.Accounts[j] = ds.Accounts[j], ds.Accounts[i] })
		return "reorder accounts"
	case op == 3:
		a := pick()
		seen := a.TaskSet()
		for t := 0; t < m; t++ {
			if !seen[t] {
				last := time.Date(2026, 7, 2, 12, 0, 0, 0, time.UTC)
				if k := len(a.Observations); k > 0 {
					last = a.Observations[k-1].Time
				}
				a.Observations = append(a.Observations, mcs.Observation{Task: t, Time: last.Add(10 * time.Minute)})
				return "append observation"
			}
		}
		return "append observation (account full)"
	case op == 4:
		a := pick()
		if len(a.Observations) == 0 {
			return "edit time (idle account)"
		}
		o := &a.Observations[rng.Intn(len(a.Observations))]
		o.Time = o.Time.Add(time.Duration(rng.Intn(240)-60) * time.Minute)
		return "edit time in place"
	case op == 5:
		a := pick()
		if len(a.Observations) == 0 {
			return "edit task (idle account)"
		}
		seen := a.TaskSet()
		o := &a.Observations[rng.Intn(len(a.Observations))]
		for t := 0; t < m; t++ {
			if !seen[t] {
				o.Task = t
				break
			}
		}
		return "edit task in place"
	case op == 6:
		a := pick()
		if len(a.Observations) == 0 {
			return "drop observation (idle account)"
		}
		k := rng.Intn(len(a.Observations))
		a.Observations = append(a.Observations[:k], a.Observations[k+1:]...)
		return "drop observation"
	case op == 7:
		// A report older than every other moves the time origin.
		a := pick()
		first, _, _ := ds.TimeSpan()
		seen := a.TaskSet()
		for t := 0; t < m; t++ {
			if !seen[t] {
				a.Observations = append(a.Observations, mcs.Observation{Task: t, Time: first.Add(-time.Duration(1+rng.Intn(90)) * time.Minute)})
				return "move origin"
			}
		}
		return "move origin (account full)"
	case op == 8:
		*phi = []float64{0.05, 0.3, 1, 3}[rng.Intn(4)]
		return "change threshold"
	case op == 9:
		ds.Tasks = append(ds.Tasks, mcs.Task{ID: m, Name: fmt.Sprintf("T%d", m+1)})
		return "add task"
	case op == 10:
		a := pick()
		for k := range a.Observations {
			a.Observations[k].Value += 1
		}
		return "edit values"
	case op == 11:
		// The same instants in a zone of their own, as a decoder that
		// builds a zone per timestamp gives them.
		a := pick()
		for k := range a.Observations {
			a.Observations[k].Time = a.Observations[k].Time.In(time.FixedZone("", 5*3600+1800))
		}
		return "rezone account"
	default:
		return "no change"
	}
}

// keepsInputs holds the changes of mutatePass that leave every AG-TR
// input as it was.
var keepsInputs = map[string]bool{"add task": true, "edit values": true, "rezone account": true, "no change": true}

// TestPassMatchesFullPassProperty drives AG-TR in both modes through
// random change sequences: observations appended, edited in place and
// dropped, accounts added, dropped, reordered and moved to another zone,
// the time origin moved, and φ changed. After every step the partition
// from the kept pass must equal a pass from nothing, the four pair
// counters must sum to n(n-1)/2, and a second pass over the unchanged
// dataset must test no pair.
func TestPassMatchesFullPassProperty(t *testing.T) {
	reg := obs.Default()
	counters := []*obs.Counter{
		reg.Counter("grouping.agtr.pairs_pruned_bound"),
		reg.Counter("grouping.agtr.pairs_pruned_task_dtw"),
		reg.Counter("grouping.agtr.pairs_full_dtw"),
		reg.Counter("grouping.agtr.pairs_reused"),
	}
	reused := counters[3]
	ctx := context.Background()
	// Passes whose partition has a group of two or more, and passes after
	// a rezone or another change that keeps every input, which reused the
	// kept partition: without both the check is weak.
	var grouped, kept int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := passCampaign(rng, 6+rng.Intn(5))
		phi := 0.3
		passes := make([]*Pass, 2)
		for step := 0; step < 60; step++ {
			change := "start"
			if step > 0 {
				change = mutatePass(rng, ds, &phi)
			}
			n := int64(ds.NumAccounts())
			for gi, g := range []AGTR{
				{Phi: phi, PhiSet: true},
				{Phi: 4 * phi, PhiSet: true, Mode: TRAbsolute},
			} {
				where := fmt.Sprintf("seed %d step %d (%s), %+v", seed, step, change, g)
				want, err := g.Group(ds)
				if err != nil {
					t.Fatalf("%s: full pass: %v", where, err)
				}
				for _, members := range want.Groups {
					if len(members) > 1 {
						grouped++
						break
					}
				}
				before := make([]int64, len(counters))
				for k, c := range counters {
					before[k] = c.Value()
				}
				got, pass, err := g.GroupPass(ctx, ds, passes[gi])
				if err != nil {
					t.Fatalf("%s: kept pass: %v", where, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: partition from the kept pass\n%v\nwant\n%v", where, got.Groups, want.Groups)
				}
				var sum int64
				for k, c := range counters {
					sum += c.Value() - before[k]
				}
				if sum != n*(n-1)/2 {
					t.Fatalf("%s: pair counters sum to %d, want n(n-1)/2 = %d", where, sum, n*(n-1)/2)
				}
				if keepsInputs[change] && passes[gi] != nil && n > 1 {
					if d := reused.Value() - before[3]; d != n*(n-1)/2 {
						t.Fatalf("%s: reused %d pairs after a change that keeps every input, want all %d", where, d, n*(n-1)/2)
					}
					kept++
				}
				// Nothing changed since pass: every pair is reused.
				r0 := reused.Value()
				again, next, err := g.GroupPass(ctx, ds, pass)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Fatalf("%s: repeated pass changed the partition", where)
				}
				if d := reused.Value() - r0; d != n*(n-1)/2 {
					t.Fatalf("%s: repeated pass reused %d pairs, want all %d", where, d, n*(n-1)/2)
				}
				passes[gi] = next
			}
		}
	}
	if grouped < 500 || kept < 100 {
		t.Errorf("%d of 960 passes had a group, %d reused after an input-keeping change; want at least 500 and 100", grouped, kept)
	}
	t.Logf("%d of 960 passes had a group, %d reused after an input-keeping change", grouped, kept)
}

// TestPassIgnoresOtherPassWideValues checks that a pass kept with another
// φ, mode or time unit is ignored rather than misread: every pair is
// tested again.
func TestPassIgnoresOtherPassWideValues(t *testing.T) {
	ds := passCampaign(rand.New(rand.NewSource(5)), 8)
	n := int64(ds.NumAccounts())
	ctx := context.Background()
	_, kept, err := AGTR{Phi: 0.3}.GroupPass(ctx, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.Default().Counter("grouping.agtr.pairs_reused")
	for _, g := range []AGTR{
		{Phi: 0.4},
		{Phi: 0.3, Mode: TRAbsolute},
		{Phi: 0.3, TimeUnit: time.Hour},
	} {
		r0 := r.Value()
		want, err := g.Group(ds)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := g.GroupPass(ctx, ds, kept)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: partition differs from a full pass", g)
		}
		if d := r.Value() - r0; d != 0 {
			t.Errorf("%+v: reused %d of %d pairs from a pass made with other pass-wide values", g, d, n*(n-1)/2)
		}
	}
}

// TestPassComparesInstants decodes the same campaign twice, with its
// timestamps at a +05:30 offset, for which each decode builds a zone of
// its own: the second decode must reuse the first one's pass. A timestamp
// that carries a monotonic clock reading may give other series bits than
// the same instant without one, so replacing it with its stripped copy
// must test every pair again.
func TestPassComparesInstants(t *testing.T) {
	ds := passCampaign(rand.New(rand.NewSource(7)), 8)
	zone := time.FixedZone("", 5*3600+1800)
	for i := range ds.Accounts {
		for k := range ds.Accounts[i].Observations {
			o := &ds.Accounts[i].Observations[k]
			o.Time = o.Time.In(zone)
		}
	}
	var buf bytes.Buffer
	if err := ds.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decode := func() *mcs.Dataset {
		d, err := mcs.DecodeJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first, second := decode(), decode()
	if first.Accounts[0].Observations[0].Time == second.Accounts[0].Observations[0].Time {
		t.Fatal("two decodes gave identical time values; the check below would be vacuous")
	}
	n := int64(first.NumAccounts())
	r := obs.Default().Counter("grouping.agtr.pairs_reused")
	g := AGTR{Phi: 0.3}
	ctx := context.Background()
	_, kept, err := g.GroupPass(ctx, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	r0 := r.Value()
	if _, _, err := g.GroupPass(ctx, second, kept); err != nil {
		t.Fatal(err)
	}
	if d := r.Value() - r0; d != n*(n-1)/2 {
		t.Errorf("a re-decoded campaign reused %d pairs, want all %d", d, n*(n-1)/2)
	}

	// A monotonic reading: the instant of the latest report, from Now.
	now := time.Now()
	last := &second.Accounts[len(second.Accounts)-1]
	last.Observations = append(last.Observations, mcs.Observation{Task: 0, Time: now})
	_, kept, err = g.GroupPass(ctx, second, nil)
	if err != nil {
		t.Fatal(err)
	}
	last.Observations[len(last.Observations)-1].Time = now.Round(0)
	r0 = r.Value()
	if _, _, err := g.GroupPass(ctx, second, kept); err != nil {
		t.Fatal(err)
	}
	if d := r.Value() - r0; d != 0 {
		t.Errorf("a pass kept with a monotonic reading was reused for its stripped copy (%d pairs)", d)
	}
}

// TestPassMemoryIsLinearOnCliques groups campaigns in which every account
// repeats one trajectory, as Sybil accounts copying one leader do, so the
// threshold graph is complete: n(n-1)/2 edges. The kept pass must stay
// O(reports + accounts), independent of the edge count.
func TestPassMemoryIsLinearOnCliques(t *testing.T) {
	base := time.Date(2026, 7, 2, 9, 0, 0, 0, time.UTC)
	size := func(n int) (bytes, bound int) {
		ds := mcs.NewDataset(6)
		for i := 0; i < n; i++ {
			var obs []mcs.Observation
			for k := 0; k < 4; k++ {
				obs = append(obs, mcs.Observation{Task: k, Time: base.Add(time.Duration(10*k) * time.Minute)})
			}
			ds.AddAccount(mcs.Account{ID: fmt.Sprintf("sybil-%04d", i), Observations: obs})
		}
		grp, pass, err := AGTR{Phi: 0.3}.GroupPass(context.Background(), ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if grp.NumGroups() != 1 {
			t.Fatalf("%d copies of one trajectory made %d groups, want 1", n, grp.NumGroups())
		}
		return pass.Bytes(), 64 * (4*n + n)
	}
	small, _ := size(200)
	large, bound := size(800)
	if large > bound {
		t.Errorf("800 accounts, 3,200 reports, 319,600 edges: kept pass %d B, want at most %d", large, bound)
	}
	if large > 5*small {
		t.Errorf("kept pass grew from %d B at 200 accounts to %d B at 800, want linear", small, large)
	}
	t.Logf("kept pass: %d B at 200 accounts, %d B at 800", small, large)
}
