package linarr

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

// withForm builds an arrangement of nl in the given order, in the dense
// form or in the sparse one, whatever nl's cell count.
func withForm(t testing.TB, nl *netlist.Netlist, order []int, dense bool) *Arrangement {
	t.Helper()
	a, err := newArrangement(nl, order, buildWiring(nl, dense))
	if err != nil {
		t.Fatal(err)
	}
	if (a.left != nil) != dense {
		t.Fatalf("built dense=%v, arrangement has left weights: %v", dense, a.left != nil)
	}
	return a
}

// sameState fails unless the two arrangements hold the same committed
// order, density, total span and gap counts.
func sameState(t *testing.T, x, y *Arrangement, label string) {
	t.Helper()
	if x.Density() != y.Density() || x.TotalSpan() != y.TotalSpan() {
		t.Fatalf("%s: dense (density %d, span %d), sparse (%d, %d)",
			label, x.Density(), x.TotalSpan(), y.Density(), y.TotalSpan())
	}
	for pos := 0; pos < x.NumCells(); pos++ {
		if x.CellAt(pos) != y.CellAt(pos) {
			t.Fatalf("%s: position %d holds cell %d dense, %d sparse", label, pos, x.CellAt(pos), y.CellAt(pos))
		}
	}
	for g := 0; g < x.NumCells()-1; g++ {
		if x.GapCut(g) != y.GapCut(g) {
			t.Fatalf("%s: GapCut(%d) = %d dense, %d sparse", label, g, x.GapCut(g), y.GapCut(g))
		}
	}
}

// sameMove fails unless the two forms report the same move.
func sameMove(t *testing.T, md, ms Move, label string) {
	t.Helper()
	if md.DeltaInt() != ms.DeltaInt() || md.DensityDelta() != ms.DensityDelta() || md.SpanDelta() != ms.SpanDelta() {
		t.Fatalf("%s: dense (delta %d, density %d, span %d), sparse (%d, %d, %d)", label,
			md.DeltaInt(), md.DensityDelta(), md.SpanDelta(), ms.DeltaInt(), ms.DensityDelta(), ms.SpanDelta())
	}
}

// TestFormSelectedByCellCount pins the selection rule: New picks the dense
// form up to denseMaxCells cells and the sparse one above.
func TestFormSelectedByCellCount(t *testing.T) {
	r := rand.New(rand.NewPCG(14, 2))
	for _, n := range []int{2, 15, denseMaxCells, denseMaxCells + 1, 400} {
		a := Random(netlist.RandomGraph(r, n, 2*n), r)
		if got, want := a.left != nil, n <= denseMaxCells; got != want {
			t.Errorf("n=%d: dense form %v, want %v", n, got, want)
		}
	}
}

// TestDenseMatchesSparse builds both forms on identical netlists — the
// paper's GOLA 15/150 and mixed NOLA 15/150 shapes, and graphs and mixed
// hypergraphs at the threshold and one cell above it — and drives both
// through the same random swaps and reinserts under both objectives. Every
// move must report the same deltas in both forms, every apply must leave
// the same state in both, and both must match the recompute oracle.
func TestDenseMatchesSparse(t *testing.T) {
	r := rand.New(rand.NewPCG(14, 1))
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		steps int
	}{
		{"gola-n15", netlist.RandomGraph(r, 15, 150), 1500},
		{"nola-n15", netlist.RandomHyper(r, 15, 150, 2, 8), 1000},
		{fmt.Sprintf("graph-n%d", denseMaxCells), netlist.RandomGraph(r, denseMaxCells, 10*denseMaxCells), 500},
		{fmt.Sprintf("mixed-n%d", denseMaxCells), netlist.RandomHyper(r, denseMaxCells, 4*denseMaxCells, 2, 6), 400},
		{fmt.Sprintf("graph-n%d", denseMaxCells+1), netlist.RandomGraph(r, denseMaxCells+1, 10*(denseMaxCells+1)), 500},
		{fmt.Sprintf("mixed-n%d", denseMaxCells+1), netlist.RandomHyper(r, denseMaxCells+1, 4*(denseMaxCells+1), 2, 6), 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.nl.NumCells()
			order := make([]int, n)
			rng.Perm(r, order)
			dense := withForm(t, tc.nl, order, true)
			sparse := withForm(t, tc.nl, order, false)
			checkAgainstOracle(t, dense, "dense initial")
			checkAgainstOracle(t, sparse, "sparse initial")
			for step := 0; step < tc.steps; step++ {
				p, q := r.IntN(n), r.IntN(n)
				obj := Density
				if r.IntN(3) == 0 {
					obj = TotalSpan
				}
				var md, ms Move
				kind := "swap"
				if r.IntN(3) == 0 {
					kind = "reinsert"
					md, ms = dense.EvalReinsertFor(p, q, obj), sparse.EvalReinsertFor(p, q, obj)
				} else {
					md, ms = dense.EvalSwapFor(p, q, obj), sparse.EvalSwapFor(p, q, obj)
				}
				label := fmt.Sprintf("step %d: %s(%d,%d) %v", step, kind, p, q, obj)
				sameMove(t, md, ms, label)
				if r.IntN(2) == 0 {
					continue // rejected in both forms
				}
				md.Apply()
				ms.Apply()
				sameState(t, dense, sparse, label)
				checkAgainstOracle(t, dense, label+" dense")
				checkAgainstOracle(t, sparse, label+" sparse")
			}
		})
	}
}

// BenchmarkSwapEvalForms measures both forms on the same graphs (10 nets
// per cell, uniform random pairs, every other move applied) across the
// dense/sparse threshold; denseMaxCells sits where the two meet.
func BenchmarkSwapEvalForms(b *testing.B) {
	for _, n := range []int{15, 64, 96, 128, 192, 400} {
		nl := netlist.RandomGraph(rng.Stream("bench/forms", uint64(n)), n, 10*n)
		order := make([]int, n)
		rng.Perm(rng.Stream("bench/forms-start", uint64(n)), order)
		for _, dense := range []bool{true, false} {
			form := "sparse"
			if dense {
				form = "dense"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, form), func(b *testing.B) {
				a := withForm(b, nl, order, dense)
				r := rng.Stream("bench/forms-pairs", uint64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := r.IntN(n)
					q := r.IntN(n - 1)
					if q >= p {
						q++
					}
					m := a.EvalSwap(p, q)
					if i%2 == 1 {
						m.Apply()
					}
				}
			})
		}
	}
}
