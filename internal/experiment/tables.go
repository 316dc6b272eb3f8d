package experiment

import (
	"fmt"

	"mcopt/internal/exact"
)

// PaperBudgets returns the 6/9/12-second budgets of Tables 4.1 and 4.2(a),
// (c), (d), scaled by the given factor (1 = paper scale). The benches use
// scale < 1 to keep testing.B iterations fast.
func PaperBudgets(scale float64) []int64 {
	return []int64{
		int64(scale * float64(Seconds(6))),
		int64(scale * float64(Seconds(9))),
		int64(scale * float64(Seconds(12))),
	}
}

// budgetColumns renders budget headers in paper units ("6 sec") when the
// budget corresponds to whole seconds, and in moves otherwise.
func budgetColumns(budgets []int64) []string {
	out := make([]string, len(budgets))
	for i, b := range budgets {
		if b%MovesPerVAXSecond == 0 {
			out[i] = fmt.Sprintf("%d sec", b/MovesPerVAXSecond)
		} else {
			out[i] = fmt.Sprintf("%d moves", b)
		}
	}
	return out
}

// Table41 regenerates Table 4.1: total density reduction on the random-start
// GOLA suite for the Goto baseline, [COHO83a], and all twenty g classes
// under the Figure-1 strategy.
func Table41(seed uint64, budgets []int64, cfg Config) (*Table, *Matrix, error) {
	suite := NewSuite(GOLAParams(), seed)
	methods := AllMethods(GOLAScale(), TunedGOLA)
	cfg.Seed = seed
	opt := solveOptimum(suite)
	x, err := Run(suite, methods, budgets, cfg)

	t := &Table{
		Title:   "Table 4.1 — GOLA, random starts, Figure 1",
		Note:    fmt.Sprintf("%d instances, 15 elements, 150 nets; starting density sum %d", suite.Size(), x.StartSum()),
		Columns: budgetColumns(budgets),
	}
	// Goto appears once (its cost is fixed); the paper prints it in the
	// first column with dashes after.
	gotoRed := gotoReduction(suite)
	cells := make([]string, len(budgets))
	cells[0] = fmt.Sprintf("%d", gotoRed)
	for i := 1; i < len(cells); i++ {
		cells[i] = "-"
	}
	t.AddTextRow("Goto", cells...)
	addReductionRows(t, x)
	addOptimalRow(t, suite, len(budgets), opt)
	return t, x, err
}

// Table42a regenerates Table 4.2(a): improvements over Goto starting
// arrangements on GOLA for the thirteen surviving methods under Figure 1.
func Table42a(seed uint64, budgets []int64, cfg Config) (*Table, *Matrix, error) {
	suite := NewSuite(GOLAParams(), seed).WithGotoStarts()
	methods := SurvivingMethods(GOLAScale(), TunedGOLA)
	cfg.Seed = seed
	opt := solveOptimum(suite)
	x, err := Run(suite, methods, budgets, cfg)
	t := &Table{
		Title:   "Table 4.2(a) — GOLA, Goto starts, Figure 1",
		Note:    fmt.Sprintf("starting (Goto) density sum %d", x.StartSum()),
		Columns: budgetColumns(budgets),
	}
	addReductionRows(t, x)
	addOptimalRow(t, suite, len(budgets), opt)
	return t, x, err
}

// Table42b regenerates Table 4.2(b): Figure 1 vs Figure 2 on the
// random-start GOLA suite at the paper's 3-minute budget.
func Table42b(seed uint64, budget int64, cfg Config) (*Table, *Matrix, *Matrix, error) {
	suite := NewSuite(GOLAParams(), seed)
	methods := SurvivingMethods(GOLAScale(), TunedGOLA)
	cfg.Seed = seed
	opt := solveOptimum(suite)
	fig1, err := Run(suite, methods, []int64{budget}, cfg)
	for i := range methods {
		methods[i] = methods[i].WithStrategy(Fig2)
	}
	fig2, err2 := Run(suite, methods, []int64{budget}, cfg)
	if err == nil {
		err = err2
	}

	t := &Table{
		Title:   "Table 4.2(b) — GOLA, random starts, Figure 1 vs Figure 2",
		Columns: []string{"Figure 1", "Figure 2", "better"},
	}
	// §4.2.4's summary statistic: "when the better of the two strategies is
	// considered for each g class, the performance difference between any
	// pair of g classes is at most 6%."
	bestLo, bestHi := 1<<30, 0
	improvedByFig2 := 0
	for m := range fig1.MethodNames {
		r1, r2 := fig1.Reduction(m, 0), fig2.Reduction(m, 0)
		best := max(r1, r2)
		bestLo, bestHi = min(bestLo, best), max(bestHi, best)
		if r2 > r1 {
			improvedByFig2++
		}
		t.AddRow(fig1.MethodNames[m], r1, r2, best)
	}
	spread := 0.0
	if bestHi > 0 {
		spread = 100 * float64(bestHi-bestLo) / float64(bestHi)
	}
	t.Note = fmt.Sprintf(
		"budget %d moves per instance; starting density sum %d; Figure 2 improved %d of %d classes; best-of spread %.1f%%",
		budget, fig1.StartSum(), improvedByFig2, len(fig1.MethodNames), spread)
	addOptimalRow(t, suite, 3, opt)
	return t, fig1, fig2, err
}

// Table42c regenerates Table 4.2(c): the NOLA suite from random starts,
// surviving methods plus the Goto baseline row.
func Table42c(seed uint64, budgets []int64, cfg Config) (*Table, *Matrix, error) {
	suite := NewSuite(NOLAParams(), seed)
	methods := SurvivingMethods(NOLAScale(), TunedNOLA)
	cfg.Seed = seed
	opt := solveOptimum(suite)
	x, err := Run(suite, methods, budgets, cfg)
	t := &Table{
		Title:   "Table 4.2(c) — NOLA, random starts, Figure 1",
		Note:    fmt.Sprintf("starting density sum %d", x.StartSum()),
		Columns: budgetColumns(budgets),
	}
	gotoRed := gotoReduction(suite)
	cells := make([]string, len(budgets))
	cells[0] = fmt.Sprintf("%d", gotoRed)
	for i := 1; i < len(cells); i++ {
		cells[i] = "-"
	}
	t.AddTextRow("Goto", cells...)
	addReductionRows(t, x)
	addOptimalRow(t, suite, len(budgets), opt)
	return t, x, err
}

// Table42d regenerates Table 4.2(d): the NOLA suite from Goto starts.
func Table42d(seed uint64, budgets []int64, cfg Config) (*Table, *Matrix, error) {
	suite := NewSuite(NOLAParams(), seed).WithGotoStarts()
	methods := SurvivingMethods(NOLAScale(), TunedNOLA)
	cfg.Seed = seed
	opt := solveOptimum(suite)
	x, err := Run(suite, methods, budgets, cfg)
	t := &Table{
		Title:   "Table 4.2(d) — NOLA, Goto starts, Figure 1",
		Note:    fmt.Sprintf("starting (Goto) density sum %d", x.StartSum()),
		Columns: budgetColumns(budgets),
	}
	addReductionRows(t, x)
	addOptimalRow(t, suite, len(budgets), opt)
	return t, x, err
}

// addReductionRows appends one row per method with its per-budget totals.
func addReductionRows(t *Table, x *Matrix) {
	for m, name := range x.MethodNames {
		t.AddRow(name, x.Reductions(m)...)
	}
}

// optimum is a suite's exact optimum, solved on its own goroutine.
type optimum struct {
	done chan struct{}
	sum  int
	ok   bool
}

// solveOptimum starts SuiteOptimum beside the caller's grid, so the exact
// solves overlap the Monte Carlo cells instead of trailing them. It runs
// outside the checkpoint journal and the scheduler: the grid's
// fingerprint, slots and progress are unchanged.
func solveOptimum(suite *Suite) *optimum {
	o := &optimum{done: make(chan struct{})}
	go func() {
		defer close(o.done)
		o.sum, o.ok = SuiteOptimum(suite)
	}()
	return o
}

// addOptimalRow waits for opt and appends the provably maximal reduction as
// a reference line — something the 1985 authors could not compute. It is
// silently skipped for instances beyond the exact solver's reach.
func addOptimalRow(t *Table, suite *Suite, cols int, opt *optimum) {
	<-opt.done
	if !opt.ok {
		return
	}
	red := suite.StartDensitySum() - opt.sum
	cells := make([]string, cols)
	for i := range cells {
		cells[i] = fmt.Sprintf("%d", red)
	}
	t.AddTextRow("(optimal)", cells...)
}

// SuiteOptimum returns the sum of the suite's exact optimal densities, or
// false if any instance exceeds the exact solver's size bound. One solver's
// DP tables serve every instance.
func SuiteOptimum(suite *Suite) (int, bool) {
	total := 0
	var sv exact.Solver
	for _, nl := range suite.Netlists {
		d, err := sv.MinDensity(nl)
		if err != nil {
			return 0, false
		}
		total += d
	}
	return total, true
}

// gotoReduction returns the suite-total reduction achieved by replacing each
// starting arrangement with Goto's constructive order.
func gotoReduction(suite *Suite) int {
	gotoDens := suite.WithGotoStarts().StartDensities()
	total := 0
	for i, d := range suite.StartDensities() {
		total += d - gotoDens[i]
	}
	return total
}
