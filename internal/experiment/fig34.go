package experiment

import (
	"fmt"
	"strings"
	"time"

	"sybiltd/internal/dtw"
	"sybiltd/internal/grouping"
	"sybiltd/internal/truth"
)

// Fig3Result reproduces Table III + Fig. 3: the AG-TS walkthrough on the
// paper's 6-account example. It reports the literal Eq. (6) matrices and
// the resulting components at the paper's threshold ρ = 1 and at ρ = 0.9
// (the paper's own Fig. 3(c) values do not follow Eq. (6); see DESIGN.md).
type Fig3Result struct {
	AccountIDs []string
	// T[i][j] counts tasks both i and j performed; L[i][j] counts tasks
	// exactly one performed; A[i][j] is the Eq. (6) affinity.
	T, L [][]int
	A    [][]float64
	// GroupsRho1 / GroupsRho09 are the components at ρ=1 and ρ=0.9 (account
	// IDs).
	GroupsRho1  [][]string
	GroupsRho09 [][]string
}

// Fig3 runs the walkthrough.
func Fig3() (Fig3Result, error) {
	ds := truth.PaperExampleWithSybil()
	n := ds.NumAccounts()
	r := Fig3Result{
		T: intMatrix(n), L: intMatrix(n),
		A: floatMatrix(n),
	}
	for ai := range ds.Accounts {
		r.AccountIDs = append(r.AccountIDs, ds.Accounts[ai].ID)
	}
	agts := grouping.AGTS{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			both, alone, err := agts.Overlap(ds, i, j)
			if err != nil {
				return Fig3Result{}, fmt.Errorf("experiment: fig3: %w", err)
			}
			r.T[i][j] = both
			r.L[i][j] = alone
			r.A[i][j] = agts.Affinity(ds, i, j)
		}
	}
	g1, err := grouping.AGTS{Rho: 1}.Group(ds)
	if err != nil {
		return Fig3Result{}, fmt.Errorf("experiment: fig3 ρ=1: %w", err)
	}
	g09, err := grouping.AGTS{Rho: 0.9}.Group(ds)
	if err != nil {
		return Fig3Result{}, fmt.Errorf("experiment: fig3 ρ=0.9: %w", err)
	}
	r.GroupsRho1 = namedGroups(g1, r.AccountIDs)
	r.GroupsRho09 = namedGroups(g09, r.AccountIDs)
	return r, nil
}

// Tables renders the matrices and components.
func (r Fig3Result) Tables() []*Table {
	n := len(r.AccountIDs)
	headers := append([]string{""}, r.AccountIDs...)
	tT := &Table{Title: "Fig. 3(a) — T(i,j): tasks both performed", Headers: headers}
	tL := &Table{Title: "Fig. 3(b) — L(i,j): tasks exactly one performed", Headers: headers}
	tA := &Table{Title: "Fig. 3(c) — Eq. (6) affinity A(i,j)", Headers: headers}
	for i := 0; i < n; i++ {
		rowT := []string{r.AccountIDs[i]}
		rowL := []string{r.AccountIDs[i]}
		rowA := []string{r.AccountIDs[i]}
		for j := 0; j < n; j++ {
			if i == j {
				rowT = append(rowT, "-")
				rowL = append(rowL, "-")
				rowA = append(rowA, "-")
				continue
			}
			rowT = append(rowT, fmt.Sprintf("%d", r.T[i][j]))
			rowL = append(rowL, fmt.Sprintf("%d", r.L[i][j]))
			rowA = append(rowA, F(r.A[i][j]))
		}
		tT.AddRow(rowT...)
		tL.AddRow(rowL...)
		tA.AddRow(rowA...)
	}
	comp := &Table{
		Title:   "Fig. 3(d) — connected components",
		Headers: []string{"threshold", "groups"},
	}
	comp.AddRow("rho=1.0", renderGroups(r.GroupsRho1))
	comp.AddRow("rho=0.9", renderGroups(r.GroupsRho09))
	return []*Table{tT, tL, tA, comp}
}

// Fig4Result reproduces Fig. 4: the AG-TR walkthrough with absolute-cost
// DTW (the variant the figure tabulates) at φ = 1.
type Fig4Result struct {
	AccountIDs []string
	// DTWX / DTWY / D are the Fig. 4(a)-(c) matrices: task-series DTW,
	// timestamp-series DTW (day units), and their sum.
	DTWX, DTWY, D [][]float64
	// Groups are the components at φ = 1 (account IDs).
	Groups [][]string
}

// Fig4 runs the walkthrough.
func Fig4() (Fig4Result, error) {
	ds := truth.PaperExampleWithSybil()
	n := ds.NumAccounts()
	r := Fig4Result{
		DTWX: floatMatrix(n), DTWY: floatMatrix(n), D: floatMatrix(n),
	}
	for ai := range ds.Accounts {
		r.AccountIDs = append(r.AccountIDs, ds.Accounts[ai].ID)
	}
	agtr := grouping.AGTR{Mode: grouping.TRAbsolute}
	origin, _, _ := ds.TimeSpan()
	taskSeries := make([][]float64, n)
	timeSeries := make([][]float64, n)
	for i := 0; i < n; i++ {
		taskSeries[i], timeSeries[i] = agtr.Series(ds, i, origin, 24*time.Hour)
	}
	calc := dtw.NewCalculator()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r.DTWX[i][j] = calc.AbsoluteCost(taskSeries[i], taskSeries[j])
			r.DTWY[i][j] = calc.AbsoluteCost(timeSeries[i], timeSeries[j])
			// Eq. (8): the dissimilarity is exactly the sum of the two DTW
			// costs above (same origin, unit, and mode as Dissimilarity).
			r.D[i][j] = r.DTWX[i][j] + r.DTWY[i][j]
		}
	}
	g, err := agtr.Group(ds)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("experiment: fig4: %w", err)
	}
	r.Groups = namedGroups(g, r.AccountIDs)
	return r, nil
}

// Tables renders the matrices and components.
func (r Fig4Result) Tables() []*Table {
	n := len(r.AccountIDs)
	headers := append([]string{""}, r.AccountIDs...)
	mk := func(title string, m [][]float64, digits int) *Table {
		t := &Table{Title: title, Headers: headers}
		for i := 0; i < n; i++ {
			row := []string{r.AccountIDs[i]}
			for j := 0; j < n; j++ {
				if i == j {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.*f", digits, m[i][j]))
			}
			t.AddRow(row...)
		}
		return t
	}
	comp := &Table{
		Title:   "Fig. 4(d) — connected components at phi=1",
		Headers: []string{"groups"},
	}
	comp.AddRow(renderGroups(r.Groups))
	return []*Table{
		mk("Fig. 4(a) — DTW of task series", r.DTWX, 0),
		mk("Fig. 4(b) — DTW of timestamp series (days)", r.DTWY, 3),
		mk("Fig. 4(c) — dissimilarity D(i,j)", r.D, 3),
		comp,
	}
}

func intMatrix(n int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	return m
}

func floatMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

func namedGroups(g grouping.Grouping, ids []string) [][]string {
	out := make([][]string, 0, len(g.Groups))
	for _, members := range g.Groups {
		named := make([]string, len(members))
		for i, m := range members {
			named[i] = ids[m]
		}
		out = append(out, named)
	}
	return out
}

func renderGroups(groups [][]string) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = "{" + strings.Join(g, ",") + "}"
	}
	return strings.Join(parts, " ")
}
