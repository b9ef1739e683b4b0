package truth

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestOnlineResubmitReplacesStaleReport pins the one-report rule in the
// streaming estimator: an account re-reporting a task in a later round
// must fully supersede its old value, not blend with it. With a single
// reporter the estimate equals that reporter's value exactly, so any
// blending with the stale report would pull it off the new value.
func TestOnlineResubmitReplacesStaleReport(t *testing.T) {
	o, err := NewOnline(1, OnlineConfig{Decay: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Observe("ana", 0, 10); err != nil {
		t.Fatal(err)
	}
	o.Tick()
	o.Tick()
	if err := o.Observe("ana", 0, 20); err != nil {
		t.Fatal(err)
	}
	got := o.Estimate()[0]
	if got != 20 {
		t.Errorf("estimate after resubmission = %v, want exactly 20 (stale report must be replaced, not blended)", got)
	}

	// Same-round resubmission too: last write wins.
	if err := o.Observe("ana", 0, 30); err != nil {
		t.Fatal(err)
	}
	if got := o.Estimate()[0]; got != 30 {
		t.Errorf("estimate after same-round resubmission = %v, want exactly 30", got)
	}
}

// TestOnlineResubmitOutweighsDecayedPeers: replacement must also hold when
// other accounts report — the resubmitting account contributes one report
// (the fresh one), never two.
func TestOnlineResubmitOutweighsDecayedPeers(t *testing.T) {
	o, err := NewOnline(1, OnlineConfig{Decay: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Observe("ana", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Observe("bo", 0, 100); err != nil {
		t.Fatal(err)
	}
	o.Tick()
	if err := o.Observe("ana", 0, 100); err != nil {
		t.Fatal(err)
	}
	got := o.Estimate()[0]
	// Both effective reports say 100, so the weighted mean is 100 up to
	// float rounding; if ana's stale 0 still participated it would drag
	// the estimate down by whole units, far outside this epsilon.
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("estimate = %v, want 100 (ana's stale report must not participate)", got)
	}
}

// TestOnlineFullyDecayedAccountNoNaN: once every report of an account has
// decayed below tolerance it stops contributing, and the estimator must
// keep producing finite estimates — not NaN weights — both for tasks that
// still have fresh reporters and for tasks whose only reporter faded.
func TestOnlineFullyDecayedAccountNoNaN(t *testing.T) {
	o, err := NewOnline(2, OnlineConfig{Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Observe("old", 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := o.Observe("old", 1, 40); err != nil {
		t.Fatal(err)
	}
	if est := o.Estimate(); math.IsNaN(est[0]) || math.IsNaN(est[1]) {
		t.Fatalf("estimates NaN while reports fresh: %v", est)
	}
	// 0.5^21 ≈ 4.8e-7 < the 1e-6 recency floor: "old" is fully faded.
	for i := 0; i < 21; i++ {
		o.Tick()
	}
	if err := o.Observe("fresh", 0, 50); err != nil {
		t.Fatal(err)
	}
	est := o.Estimate()
	if est[0] != 50 {
		t.Errorf("task 0 estimate = %v, want exactly 50 (faded account must not blend in)", est[0])
	}
	// Task 1's only reporter faded: the last finite estimate must persist
	// rather than collapse to NaN.
	if math.IsNaN(est[1]) || math.IsInf(est[1], 0) {
		t.Errorf("task 1 estimate became non-finite after its reporter fully decayed: %v", est[1])
	}
	// Repeated estimation stays finite and stable.
	est2 := o.Estimate()
	if math.IsNaN(est2[0]) || math.IsNaN(est2[1]) {
		t.Errorf("second estimate produced NaN: %v", est2)
	}
}

// TestOnlinePruneBoundsSteadyStateSize pins the memory bound for a
// long-lived estimator: with Decay = 0.5 an observation's influence falls
// below the 1e-6 recency floor after 20 rounds, so after many rounds of
// churning accounts (one fresh account per round) the live state must
// stay pinned at the fade window — not grow with every account that ever
// reported. Before the prune fix, faded observations were skipped by
// Estimate but never deleted and NumAccounts reported every account ever
// seen, an unbounded leak in any long-running stream.
func TestOnlinePruneBoundsSteadyStateSize(t *testing.T) {
	const rounds = 1000
	o, err := NewOnline(4, OnlineConfig{Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// 0.5^20 ≈ 9.5e-7 < 1e-6: anything older than 20 rounds is faded.
	const fadeWindow = 20
	for r := 0; r < rounds; r++ {
		if err := o.Observe(fmt.Sprintf("acct-%04d", r), r%4, float64(r%17)); err != nil {
			t.Fatal(err)
		}
		o.Tick()
		if r%100 == 0 {
			o.Estimate() // interleave estimates: both paths must prune
		}
	}
	// One account per round, one observation each: steady state is at most
	// the fade window (+1 for the boundary round).
	if n := o.NumAccounts(); n > fadeWindow+1 {
		t.Errorf("NumAccounts = %d after %d rounds, want <= %d (faded accounts must be pruned)", n, rounds, fadeWindow+1)
	}
	if n := o.NumObservations(); n > fadeWindow+1 {
		t.Errorf("NumObservations = %d after %d rounds, want <= %d (faded observations must be pruned)", n, rounds, fadeWindow+1)
	}
	// Sanity: the estimator still works and recent data still counts.
	if est := o.Estimate(); math.IsNaN(est[(rounds-1)%4]) {
		t.Errorf("estimate for the most recently observed task is NaN")
	}
	if o.NumAccounts() == 0 {
		t.Error("NumAccounts = 0, recent accounts must remain live")
	}
}

// TestOnlineEstimateIsDeterministic: two estimators fed the same reports
// in different Observe orders hold the same state, so they must return
// bit-identical estimates round after round. Summing over Go maps in
// iteration order made them disagree in the last bits.
func TestOnlineEstimateIsDeterministic(t *testing.T) {
	const accounts, tasks = 200, 5
	a, err := NewOnline(tasks, OnlineConfig{Decay: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOnline(tasks, OnlineConfig{Decay: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	type report struct {
		account string
		task    int
		value   float64
	}
	for round := 0; round < 4; round++ {
		var reports []report
		for u := 0; u < accounts; u++ {
			for j := 0; j < tasks; j++ {
				if rng.Float64() < 0.6 {
					reports = append(reports, report{fmt.Sprintf("acct-%03d", u), j, -70 + float64(j) + rng.NormFloat64()*(1+float64(u%7))})
				}
			}
		}
		for _, r := range reports {
			if err := a.Observe(r.account, r.task, r.value); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range rng.Perm(len(reports)) {
			r := reports[k]
			if err := b.Observe(r.account, r.task, r.value); err != nil {
				t.Fatal(err)
			}
		}
		ea, eb := a.Estimate(), b.Estimate()
		for j := range ea {
			if math.Float64bits(ea[j]) != math.Float64bits(eb[j]) {
				t.Fatalf("round %d task %d: %v vs %v (%#x vs %#x)", round, j, ea[j], eb[j], math.Float64bits(ea[j]), math.Float64bits(eb[j]))
			}
		}
		a.Tick()
		b.Tick()
	}
}
