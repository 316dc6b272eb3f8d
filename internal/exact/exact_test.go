package exact

import (
	"testing"

	"mcopt/internal/core"
	"mcopt/internal/gotoh"
	"mcopt/internal/linarr"
	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

// bruteMinDensity enumerates all permutations (n ≤ 8).
func bruteMinDensity(nl *netlist.Netlist) int {
	n := nl.NumCells()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	best := 1 << 30
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if d := linarr.MustNew(nl, order).Density(); d < best {
				best = d
			}
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	return best
}

func TestMinDensityMatchesBruteForce(t *testing.T) {
	r := rng.Stream("exact-brute", 1)
	for trial := 0; trial < 8; trial++ {
		nl := netlist.RandomHyper(r, 7, 15, 2, 4)
		want := bruteMinDensity(nl)
		got, err := MinDensity(nl)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: DP optimum %d, brute force %d", trial, got, want)
		}
	}
}

// TestSolverReuseMatchesFresh runs one Solver over instances that grow,
// shrink and grow again, so its tables are both reallocated and reused
// with stale entries, and checks every answer against a fresh solve.
func TestSolverReuseMatchesFresh(t *testing.T) {
	r := rng.Stream("exact-reuse", 1)
	var sv Solver
	for trial, n := range []int{6, 9, 4, 9, 7, 12, 5, 12} {
		nl := netlist.RandomHyper(r, n, 3*n, 2, 4)
		want, err := MinDensity(nl)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sv.MinDensity(nl); err != nil || got != want {
			t.Fatalf("trial %d (n=%d): reused solver (%d, %v), fresh %d", trial, n, got, err, want)
		}
	}
	if _, err := sv.MinDensity(netlist.RandomGraph(r, MaxCells+1, 10)); err == nil {
		t.Fatal("reused solver accepted an instance beyond MaxCells")
	}
}

func TestMinDensityPathGraph(t *testing.T) {
	// A path has optimal density 1 (its natural order).
	nl := netlist.MustNew(6, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	got, err := MinDensity(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("path optimum = %d, want 1", got)
	}
}

func TestMinDensityStarGraph(t *testing.T) {
	// A star K1,5: the hub must sit somewhere; the heavier side of the hub
	// determines the density: optimal is ceil(5/2) = 3.
	nl := netlist.MustNew(6, [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	got, err := MinDensity(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("star optimum = %d, want 3", got)
	}
}

func TestOptimalOrderAchievesOptimum(t *testing.T) {
	r := rng.Stream("exact-order", 2)
	for trial := 0; trial < 5; trial++ {
		nl := netlist.RandomHyper(r, 9, 30, 2, 5)
		opt, err := MinDensity(nl)
		if err != nil {
			t.Fatal(err)
		}
		order, err := OptimalOrder(nl)
		if err != nil {
			t.Fatal(err)
		}
		if d := linarr.MustNew(nl, order).Density(); d != opt {
			t.Fatalf("trial %d: reconstructed order has density %d, optimum %d", trial, d, opt)
		}
	}
}

func TestOptimumLowerBoundsHeuristics(t *testing.T) {
	r := rng.Stream("exact-lb", 3)
	for trial := 0; trial < 5; trial++ {
		nl := netlist.RandomGraph(r, 12, 60)
		opt, err := MinDensity(nl)
		if err != nil {
			t.Fatal(err)
		}
		if g := linarr.MustNew(nl, gotoh.Order(nl)).Density(); g < opt {
			t.Fatalf("Goto density %d below proven optimum %d", g, opt)
		}
		if rd := linarr.Random(nl, r).Density(); rd < opt {
			t.Fatalf("random density %d below proven optimum %d", rd, opt)
		}
	}
}

func TestPaperScaleInstance(t *testing.T) {
	// The paper's 15/150 instances must solve exactly (this is the whole
	// point of the package); sanity-bound the optimum.
	nl := netlist.RandomGraph(rng.Stream("exact-15", 4), 15, 150)
	opt, err := MinDensity(nl)
	if err != nil {
		t.Fatal(err)
	}
	random := linarr.Random(nl, rng.Stream("exact-15-rand", 4)).Density()
	if opt <= 0 || opt > random {
		t.Fatalf("optimum %d outside (0, random %d]", opt, random)
	}
}

func TestDegenerateInstances(t *testing.T) {
	one := netlist.MustNew(1, nil)
	if opt, err := MinDensity(one); err != nil || opt != 0 {
		t.Fatalf("single cell: (%d, %v)", opt, err)
	}
	empty := netlist.MustNew(5, nil)
	if opt, err := MinDensity(empty); err != nil || opt != 0 {
		t.Fatalf("no nets: (%d, %v)", opt, err)
	}
	order, err := OptimalOrder(empty)
	if err != nil || len(order) != 5 {
		t.Fatalf("no-nets order: (%v, %v)", order, err)
	}
}

func TestTooManyCellsRefused(t *testing.T) {
	nl := netlist.RandomGraph(rng.Stream("exact-big", 5), MaxCells+1, 10)
	if _, err := MinDensity(nl); err == nil {
		t.Fatal("accepted an instance beyond MaxCells")
	}
	if _, err := OptimalOrder(nl); err == nil {
		t.Fatal("OptimalOrder accepted an instance beyond MaxCells")
	}
}

// bruteMinSpan enumerates all permutations (n <= 8) for the span objective.
func bruteMinSpan(nl *netlist.Netlist) int {
	n := nl.NumCells()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	best := 1 << 30
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if d := linarr.MustNew(nl, order).TotalSpan(); d < best {
				best = d
			}
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	return best
}

func TestMinTotalSpanMatchesBruteForce(t *testing.T) {
	r := rng.Stream("exact-span", 6)
	for trial := 0; trial < 6; trial++ {
		nl := netlist.RandomHyper(r, 7, 14, 2, 4)
		want := bruteMinSpan(nl)
		got, err := MinTotalSpan(nl)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: DP span optimum %d, brute force %d", trial, got, want)
		}
	}
}

func TestMinTotalSpanPath(t *testing.T) {
	// Path graph in natural order: every edge spans 1, total 5 — optimal.
	nl := netlist.MustNew(6, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	got, err := MinTotalSpan(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("path span optimum = %d, want 5", got)
	}
}

func TestMinTotalSpanRefusesBig(t *testing.T) {
	nl := netlist.RandomGraph(rng.Stream("exact-span-big", 7), MaxCells+1, 10)
	if _, err := MinTotalSpan(nl); err == nil {
		t.Fatal("accepted instance beyond MaxCells")
	}
}

func TestSpanOptimumBoundsHeuristics(t *testing.T) {
	// The exact span optimum must lower-bound any arrangement's TotalSpan,
	// including span-objective local optima.
	r := rng.Stream("exact-span-lb", 8)
	for trial := 0; trial < 5; trial++ {
		nl := netlist.RandomHyper(r, 10, 40, 2, 4)
		opt, err := MinTotalSpan(nl)
		if err != nil {
			t.Fatal(err)
		}
		s := linarr.NewSolutionFor(linarr.Random(nl, r), linarr.PairwiseInterchange, linarr.TotalSpan)
		s.Descend(core.NewBudget(1 << 22))
		if got := s.Arrangement().TotalSpan(); got < opt {
			t.Fatalf("trial %d: local optimum span %d below proven optimum %d", trial, got, opt)
		}
	}
}
