package linarr

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mcopt/internal/netlist"
)

// TestProposeBatchMatchesSerial is the batched kernel's differential
// anchor: ProposeBatch must return exactly the deltas of the same number of
// consecutive Propose calls on an identical arrangement fed the same random
// stream — across instance shapes, move kinds, and objectives — and
// committing any candidate must land both copies in the same state.
func TestProposeBatchMatchesSerial(t *testing.T) {
	gen := rand.New(rand.NewPCG(2025, 8))
	instances := []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"graph-n6", netlist.RandomGraph(gen, 6, 9)},
		{"graph-n15", netlist.RandomGraph(gen, 15, 30)},
		{"graph-n33", netlist.RandomGraph(gen, 33, 80)},
		{"hyper-n20", netlist.RandomHyper(gen, 20, 15, 2, 6)},
		{"sparse-n25", netlist.RandomGraph(gen, 25, 5)},
		{"multi-n15", netlist.RandomGraph(gen, 15, 150)},
		{"mixed-n300", netlist.RandomHyper(gen, 300, 600, 2, 8)},
	}
	const B = 16
	for _, inst := range instances {
		for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
			for _, obj := range []Objective{Density, TotalSpan} {
				t.Run(inst.name+"/"+kind.String()+"/"+obj.String(), func(t *testing.T) {
					start := Random(inst.nl, rand.New(rand.NewPCG(1, 2)))
					batched := NewSolutionFor(start, kind, obj)
					serial := NewSolutionFor(start.Clone(), kind, obj)
					rb := rand.New(rand.NewPCG(99, 5))
					rs := rand.New(rand.NewPCG(99, 5))
					pick := rand.New(rand.NewPCG(7, 7))
					deltas := make([]float64, B)
					for round := 0; round < 25; round++ {
						batched.ProposeBatch(rb, deltas)
						for i := range deltas {
							want := serial.Propose(rs).Delta()
							if deltas[i] != want {
								t.Fatalf("round %d candidate %d: batched delta %g, serial %g",
									round, i, deltas[i], want)
							}
						}
						// Commit a random candidate on both copies: ApplyBatch
						// replays the logged evaluation, the serial copy
						// re-evaluates it.
						i := pick.IntN(B)
						batched.ApplyBatch(i)
						be := batched.arr.batch
						p, q := be.ps[i], be.qs[i]
						var m Move
						if kind == SingleExchange {
							m = serial.arr.EvalReinsertFor(p, q, obj)
						} else {
							m = serial.arr.EvalSwapFor(p, q, obj)
						}
						m.Apply()
						if batched.Cost() != serial.Cost() {
							t.Fatalf("round %d: costs diverged after commit: %g vs %g",
								round, batched.Cost(), serial.Cost())
						}
						if !slices.Equal(batched.arr.Order(), serial.arr.Order()) {
							t.Fatalf("round %d: orders diverged after commit", round)
						}
					}
				})
			}
		}
	}
}

// TestProposeBatchAfterSerialTraffic: a batch drawn while a serial proposal
// is outstanding must still read committed state, and the random recipe
// stays aligned with Propose.
func TestProposeBatchAfterSerialTraffic(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(3, 3)), 12, 30)
	start := Random(nl, rand.New(rand.NewPCG(4, 4)))
	s := NewSolution(start, PairwiseInterchange)
	mirror := NewSolution(start.Clone(), PairwiseInterchange)

	r1 := rand.New(rand.NewPCG(8, 8))
	r2 := rand.New(rand.NewPCG(8, 8))
	// Leave an unapplied serial proposal hanging, then batch.
	s.Propose(r1)
	mirror.Propose(r2)
	deltas := make([]float64, 8)
	s.ProposeBatch(r1, deltas)
	for i := range deltas {
		if want := mirror.Propose(r2).Delta(); deltas[i] != want {
			t.Fatalf("candidate %d: batched delta %g, serial %g", i, deltas[i], want)
		}
	}
}

func TestProposeBatchSingleCell(t *testing.T) {
	nl := netlist.MustNew(1, nil)
	s := NewSolution(Identity(nl), PairwiseInterchange)
	r := rand.New(rand.NewPCG(6, 6))
	deltas := []float64{99, 99, 99}
	s.ProposeBatch(r, deltas)
	for i, d := range deltas {
		if d != 0 {
			t.Fatalf("candidate %d: delta %g on a single-cell instance, want 0", i, d)
		}
	}
	// The degenerate batch draws nothing from the stream.
	r2 := rand.New(rand.NewPCG(6, 6))
	if r.Uint64() != r2.Uint64() {
		t.Fatal("single-cell batch consumed the random stream")
	}
	s.ApplyBatch(1) // identity plateau move commits cleanly
}

func TestApplyBatchStalePanics(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(7, 7)), 10, 20)
	s := NewSolution(Random(nl, rand.New(rand.NewPCG(8, 8))), PairwiseInterchange)
	r := rand.New(rand.NewPCG(9, 9))
	deltas := make([]float64, 4)

	t.Run("after serial proposal", func(t *testing.T) {
		s.ProposeBatch(r, deltas)
		s.Propose(r) // bumps the arrangement seq: batch is stale
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s.ApplyBatch(0)
	})
	t.Run("after commit", func(t *testing.T) {
		s.ProposeBatch(r, deltas)
		s.ApplyBatch(2)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s.ApplyBatch(1)
	})
	t.Run("out of range", func(t *testing.T) {
		s.ProposeBatch(r, deltas)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s.ApplyBatch(4)
	})
	t.Run("no batch", func(t *testing.T) {
		fresh := NewSolution(Random(nl, rand.New(rand.NewPCG(10, 10))), PairwiseInterchange)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		fresh.ApplyBatch(0)
	})
}

// TestProposeBatchCloneIndependent: the batch scratch must not travel with
// clones — a clone starts batchless and batches independently.
func TestProposeBatchCloneIndependent(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(11, 11)), 10, 25)
	s := NewSolution(Random(nl, rand.New(rand.NewPCG(12, 12))), PairwiseInterchange)
	r := rand.New(rand.NewPCG(13, 13))
	deltas := make([]float64, 4)
	s.ProposeBatch(r, deltas)

	c := s.Clone().(*Solution)
	if c.arr.batch != nil {
		t.Fatal("clone inherited the batch scratch")
	}
	// Both copies batch and commit without interfering.
	cd := make([]float64, 4)
	c.ProposeBatch(rand.New(rand.NewPCG(14, 14)), cd)
	c.ApplyBatch(0)
	s.ApplyBatch(0)
}

// TestProposalPathAllocatesNothing pins DESIGN.md §5's zero-allocation
// claim: at steady state every proposal-path entry point — serial
// evaluation of both move kinds, Apply, and the batched pair — allocates
// nothing, on the paper's GOLA and NOLA shapes (the dense form) and on a
// large mixed NOLA instance (the sparse form).
func TestProposalPathAllocatesNothing(t *testing.T) {
	gen := rand.New(rand.NewPCG(5, 5))
	for _, inst := range []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"gola-15x150", netlist.RandomGraph(gen, 15, 150)},
		{"nola-400x1200", netlist.RandomHyper(gen, 400, 1200, 2, 8)},
		{"nola-15x150", netlist.RandomHyper(gen, 15, 150, 2, 8)},
	} {
		t.Run(inst.name, func(t *testing.T) {
			a := Random(inst.nl, gen)
			n := a.NumCells()
			r := rand.New(rand.NewPCG(6, 6))
			pair := func() (int, int) { return r.IntN(n), r.IntN(n) }
			swap := NewSolution(a.Clone(), PairwiseInterchange)
			reins := NewSolution(a.Clone(), SingleExchange)
			deltas := make([]float64, 16)
			for _, tc := range []struct {
				name string
				f    func()
			}{
				{"EvalSwapFor", func() { p, q := pair(); a.EvalSwapFor(p, q, Density) }},
				{"EvalReinsertFor", func() { p, q := pair(); a.EvalReinsertFor(p, q, TotalSpan) }},
				{"Apply/swap", func() { p, q := pair(); a.EvalSwapFor(p, q, Density).Apply() }},
				{"Apply/reinsert", func() { p, q := pair(); a.EvalReinsertFor(p, q, Density).Apply() }},
				{"ProposeBatch", func() { swap.ProposeBatch(r, deltas) }},
				{"ApplyBatch/swap", func() { swap.ProposeBatch(r, deltas); swap.ApplyBatch(r.IntN(len(deltas))) }},
				{"ApplyBatch/reinsert", func() { reins.ProposeBatch(r, deltas); reins.ApplyBatch(r.IntN(len(deltas))) }},
			} {
				tc.f() // warm lazily sized scratch
				if got := testing.AllocsPerRun(200, tc.f); got != 0 {
					t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
				}
			}
		})
	}
}
