package grouping

import (
	"math"
	"reflect"
	"testing"

	"sybiltd/internal/mcs"
	"sybiltd/internal/truth"
)

func TestGroupingLabels(t *testing.T) {
	g := Grouping{Groups: [][]int{{0, 2}, {1}}}
	labels := g.Labels(4)
	if labels[0] != labels[2] {
		t.Error("grouped accounts should share a label")
	}
	if labels[1] == labels[0] {
		t.Error("separate groups should differ")
	}
	if labels[3] == labels[0] || labels[3] == labels[1] {
		t.Error("uncovered account should get a fresh label")
	}
}

func TestGroupingValidate(t *testing.T) {
	good := Grouping{Groups: [][]int{{0, 1}, {2}}}
	if err := good.Validate(3); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	for name, bad := range map[string]Grouping{
		"empty group":  {Groups: [][]int{{0, 1}, {}}},
		"out of range": {Groups: [][]int{{0, 1}, {5}}},
		"duplicate":    {Groups: [][]int{{0, 1}, {1}}},
		"missing":      {Groups: [][]int{{0}}},
	} {
		if err := bad.Validate(3); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestGroupOf(t *testing.T) {
	g := Grouping{Groups: [][]int{{0, 2}, {1}}}
	if g.GroupOf(2) != 0 || g.GroupOf(1) != 1 {
		t.Error("GroupOf wrong")
	}
	if g.GroupOf(9) != -1 {
		t.Error("GroupOf missing should be -1")
	}
}

func TestSingletons(t *testing.T) {
	g := Singletons(3)
	if err := g.Validate(3); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 3 {
		t.Errorf("NumGroups = %d, want 3", g.NumGroups())
	}
}

func TestAGTSPaperWalkthrough(t *testing.T) {
	// Table III example with Eq. (6) affinities and the strict threshold
	// ρ = 1. Literal Eq. (6) gives A(1,4')=1 and A(1,3)=1 — not > 1 — so
	// the Sybil accounts {4',4'',4'''} (A = 2.25 pairwise) form the only
	// multi-account component. (The paper's Fig. 3 tabulates different
	// affinity values that do not follow Eq. (6); see DESIGN.md errata.)
	ds := truth.PaperExampleWithSybil()
	g, err := AGTS{}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {2}, {3, 4, 5}}
	if !reflect.DeepEqual(g.Groups, want) {
		t.Errorf("AG-TS groups = %v, want %v", g.Groups, want)
	}

	// With ρ = 0.9, the A = 1 edges (1,3) and (1,4') enter the graph and
	// the paper's false-positive component appears (plus account 3, which
	// ties account 4' in affinity to account 1 under literal Eq. 6).
	g, err = AGTS{Rho: 0.9}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 2, 3, 4, 5}, {1}}
	if !reflect.DeepEqual(g.Groups, want) {
		t.Errorf("AG-TS ρ=0.9 groups = %v, want %v", g.Groups, want)
	}
}

func TestAGTSAffinityValues(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	agts := AGTS{}
	tests := []struct {
		i, j int
		want float64
	}{
		{0, 1, -2},    // 1 vs 2: T=2, L=2 -> (2-4)*(4)/4
		{0, 2, 1},     // 1 vs 3: T=3, L=1
		{0, 3, 1},     // 1 vs 4': T=3, L=1
		{3, 4, 2.25},  // 4' vs 4'': T=3, L=0
		{2, 3, -2},    // 3 vs 4': T=2, L=2
		{1, 3, -3.75}, // 2 vs 4': T=1, L=3 -> (1-6)*(4)/4 = -5? recompute below
	}
	for _, tt := range tests[:5] {
		if got := agts.Affinity(ds, tt.i, tt.j); got != tt.want {
			t.Errorf("A(%d,%d) = %v, want %v", tt.i, tt.j, got, tt.want)
		}
	}
	// 2={T2,T3}, 4'={T1,T3,T4}: T=1 (T3), L=3 (T2, T1, T4) ->
	// (1-6)*(1+3)/4 = -5.
	if got := agts.Affinity(ds, 1, 3); got != -5 {
		t.Errorf("A(2,4') = %v, want -5", got)
	}
	// Symmetry.
	if agts.Affinity(ds, 0, 3) != agts.Affinity(ds, 3, 0) {
		t.Error("affinity should be symmetric")
	}
}

func TestAGTRPaperWalkthrough(t *testing.T) {
	// Fig. 4: with absolute-cost DTW and φ = 1, only the Sybil accounts
	// (identical task series, near-identical day-fraction timestamps) are
	// grouped; accounts 1, 2, 3 stay singletons.
	ds := truth.PaperExampleWithSybil()
	g, err := AGTR{Mode: TRAbsolute}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {2}, {3, 4, 5}}
	if !reflect.DeepEqual(g.Groups, want) {
		t.Errorf("AG-TR groups = %v, want %v (Fig. 4d)", g.Groups, want)
	}
}

func TestAGTRDissimilarityMatchesFig4Shape(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	agtr := AGTR{Mode: TRAbsolute}
	// D(4',4'') must be far below 1; D(1,4') just above 1 (1 task mismatch
	// + small time gap); D(2, anything) >= 2.
	if d := agtr.Dissimilarity(ds, 3, 4); d >= 0.1 {
		t.Errorf("D(4',4'') = %v, want << 1", d)
	}
	if d := agtr.Dissimilarity(ds, 0, 3); d <= 1 || d >= 1.1 {
		t.Errorf("D(1,4') = %v, want just above 1", d)
	}
	if d := agtr.Dissimilarity(ds, 1, 0); d < 2 {
		t.Errorf("D(2,1) = %v, want >= 2", d)
	}
	// Symmetry.
	if agtr.Dissimilarity(ds, 0, 3) != agtr.Dissimilarity(ds, 3, 0) {
		t.Error("dissimilarity should be symmetric")
	}
}

func TestAGTREq7ModeGroupsSybils(t *testing.T) {
	// The Eq. (7) normalized variant also isolates the Sybil accounts, with
	// a suitable threshold: normalized distances shrink (sqrt(cost/K)), so
	// the φ needs to be below the 1-mismatch level sqrt(1/4)=0.5.
	ds := truth.PaperExampleWithSybil()
	g, err := AGTR{Phi: 0.4}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.GroupOf(3); got != g.GroupOf(4) || got != g.GroupOf(5) {
		t.Errorf("Eq7 mode should group the Sybil accounts: %v", g.Groups)
	}
	for a := 0; a < 3; a++ {
		if g.GroupOf(a) == g.GroupOf(3) {
			t.Errorf("account %d wrongly grouped with Sybils: %v", a, g.Groups)
		}
	}
}

func TestAGTRIdleAccountsStaySingletons(t *testing.T) {
	ds := mcs.NewDataset(2)
	ds.AddAccount(mcs.Account{ID: "idle1"})
	ds.AddAccount(mcs.Account{ID: "idle2"})
	g, err := AGTR{}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Errorf("idle accounts grouped: %v", g.Groups)
	}
	if d := (AGTR{}).Dissimilarity(ds, 0, 1); !math.IsInf(d, 1) {
		t.Errorf("dissimilarity of two idle accounts = %v, want +Inf", d)
	}
}

func TestGroupersOnNilAndEmpty(t *testing.T) {
	groupers := []Grouper{AGFP{}, AGTS{}, AGTR{}, Combo{Members: []Grouper{AGTS{}}}}
	for _, gr := range groupers {
		if _, err := gr.Group(nil); err == nil {
			t.Errorf("%s: nil dataset should error", gr.Name())
		}
		g, err := gr.Group(mcs.NewDataset(3))
		if err != nil {
			t.Errorf("%s: empty dataset errored: %v", gr.Name(), err)
		}
		if g.NumGroups() != 0 {
			t.Errorf("%s: empty dataset produced groups: %v", gr.Name(), g.Groups)
		}
	}
}

func TestGrouperNames(t *testing.T) {
	if (AGFP{}).Name() != "AG-FP" || (AGTS{}).Name() != "AG-TS" || (AGTR{}).Name() != "AG-TR" {
		t.Error("unexpected grouper names")
	}
	combo := Combo{Members: []Grouper{AGFP{}, AGTR{}}, Mode: CombineIntersect}
	if got := combo.Name(); got != "AG-Combo[intersect:AG-FP+AG-TR]" {
		t.Errorf("combo name = %q", got)
	}
}

func TestGroupingsArePartitions(t *testing.T) {
	ds := truth.PaperExampleWithSybil()
	for _, gr := range []Grouper{AGTS{}, AGTR{}, AGTR{Mode: TRAbsolute}, Combo{Members: []Grouper{AGTS{}, AGTR{}}, Mode: CombineUnion}} {
		g, err := gr.Group(ds)
		if err != nil {
			t.Fatalf("%s: %v", gr.Name(), err)
		}
		if err := g.Validate(ds.NumAccounts()); err != nil {
			t.Errorf("%s: not a partition: %v", gr.Name(), err)
		}
	}
}

func TestAGFPSilhouetteVariantRuns(t *testing.T) {
	// Build a tiny fingerprinted dataset from the public simulate API is
	// not possible here (import cycle); synthesize three separable
	// fingerprint clusters directly.
	ds := mcs.NewDataset(1)
	mk := func(id string, base float64) {
		fp := make([]float64, 80)
		for i := range fp {
			fp[i] = base + float64(i%3)*0.01
		}
		ds.AddAccount(mcs.Account{ID: id, Fingerprint: fp})
	}
	mk("a1", 0)
	mk("a2", 0.02)
	mk("b1", 10)
	mk("b2", 10.02)
	for _, g := range []Grouper{AGFP{}, AGFP{UseSilhouette: true}} {
		got, err := g.Group(ds)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := got.Validate(4); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		// The two far-apart pairs must never be merged.
		if got.GroupOf(0) == got.GroupOf(2) {
			t.Errorf("%v merged distant fingerprints: %v", g, got.Groups)
		}
	}
}

func TestAGFPBareAccountsAreSingletons(t *testing.T) {
	ds := mcs.NewDataset(1)
	ds.AddAccount(mcs.Account{ID: "nofp1"})
	ds.AddAccount(mcs.Account{ID: "nofp2"})
	fp := make([]float64, 80)
	ds.AddAccount(mcs.Account{ID: "withfp", Fingerprint: fp})
	g, err := AGFP{}.Group(ds)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 3 {
		t.Errorf("groups = %v, want all singletons", g.Groups)
	}
}
