package linarr

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mcopt/internal/netlist"
)

// checkAgainstOracle rebuilds an arrangement from a's committed order and
// compares every piece of incremental state — density, total span, per-gap
// counts, the multi-pin span cache and the dense form's left weights —
// against the from-scratch recompute, the spans and weights against a
// brute-force reading of the order.
func checkAgainstOracle(t *testing.T, a *Arrangement, label string) {
	t.Helper()
	nl := a.Netlist()
	oracle := MustNew(nl, a.Order())
	if a.Density() != oracle.Density() {
		t.Fatalf("%s: Density = %d, oracle %d", label, a.Density(), oracle.Density())
	}
	if a.TotalSpan() != oracle.TotalSpan() {
		t.Fatalf("%s: TotalSpan = %d, oracle %d", label, a.TotalSpan(), oracle.TotalSpan())
	}
	for g := 0; g < a.NumCells()-1; g++ {
		if a.GapCut(g) != oracle.GapCut(g) {
			t.Fatalf("%s: GapCut(%d) = %d, oracle %d", label, g, a.GapCut(g), oracle.GapCut(g))
		}
	}
	pos := make([]int, a.NumCells())
	for p, c := range a.Order() {
		pos[c] = p
	}
	for k, pins := range a.wiring.pins {
		lo, hi := a.NumCells(), -1
		for _, c := range pins {
			lo, hi = min(lo, pos[c]), max(hi, pos[c])
		}
		if a.netLo[k] != lo || a.netHi[k] != hi {
			t.Fatalf("%s: multi-pin slot %d (%d pins) span [%d,%d], oracle [%d,%d]",
				label, k, len(pins), a.netLo[k], a.netHi[k], lo, hi)
		}
	}
	for c := range a.left {
		want := 0
		for _, e := range a.wiring.pairs[c] {
			if pos[e.cell] < pos[c] {
				want += e.w
			}
		}
		if a.left[c] != want {
			t.Fatalf("%s: left[%d] = %d, oracle %d", label, c, a.left[c], want)
		}
	}
	for c := 0; c < a.NumCells(); c++ {
		if a.CellAt(a.PosOf(c)) != c {
			t.Fatalf("%s: cellAt/posOf out of sync for cell %d", label, c)
		}
	}
}

// driveKernel throws a random move sequence — evaluations, applies, implicit
// rejections, mid-proposal reads and clones — at an arrangement and checks
// the incremental state against the recompute oracle after every apply.
func driveKernel(t *testing.T, nl *netlist.Netlist, r *rand.Rand, steps int) {
	t.Helper()
	a := Random(nl, r)
	checkAgainstOracle(t, a, "initial")
	n := a.NumCells()
	for step := 0; step < steps; step++ {
		p, q := r.IntN(n), r.IntN(n)
		obj := Density
		if r.IntN(4) == 0 {
			obj = TotalSpan
		}
		var m Move
		kind := "swap"
		if r.IntN(2) == 0 {
			m = a.EvalSwapFor(p, q, obj)
		} else {
			kind = "reinsert"
			m = a.EvalReinsertFor(p, q, obj)
		}

		// The delta the move reports must match the oracle difference.
		before := MustNew(nl, a.Order())
		if r.IntN(8) == 0 {
			// Committed reads and clones must not disturb the proposal.
			_ = a.GapCut(r.IntN(max(n-1, 1)))
			cl := a.Clone()
			checkAgainstOracle(t, cl, "clone mid-proposal")
		}

		if r.IntN(2) == 0 {
			// Reject by abandoning the move; the next Eval rolls it back.
			continue
		}
		m.Apply()
		after := MustNew(nl, a.Order())
		if got, want := m.DensityDelta(), after.Density()-before.Density(); got != want {
			t.Fatalf("step %d: %s(%d,%d) DensityDelta = %d, oracle %d", step, kind, p, q, got, want)
		}
		if got, want := m.SpanDelta(), after.TotalSpan()-before.TotalSpan(); got != want {
			t.Fatalf("step %d: %s(%d,%d) SpanDelta = %d, oracle %d", step, kind, p, q, got, want)
		}
		checkAgainstOracle(t, a, "after apply")
	}
}

// TestKernelDifferential drives thousands of random move sequences against
// the recompute oracle over graph and hypergraph netlists of several sizes,
// crossing the tree's block-size regimes. multi-n15 is the paper's 15/150
// GOLA shape, where parallel nets merge into weighted pair edges; mixed-n300
// mixes pair edges with 3..8-pin nets, and its windows span several
// 32-gap blocks, so the block skip and the edge-block rescans both run.
func TestKernelDifferential(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 1))
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		steps int
	}{
		{"pair-n2", netlist.MustNew(2, [][]int{{0, 1}}), 50},
		{"graph-n6", netlist.RandomGraph(r, 6, 9), 400},
		{"graph-n15", netlist.RandomGraph(r, 15, 30), 400},
		{"graph-n33", netlist.RandomGraph(r, 33, 80), 300},
		{"hyper-n20", netlist.RandomHyper(r, 20, 15, 2, 6), 400},
		{"hyper-n40", netlist.RandomHyper(r, 40, 25, 3, 8), 300},
		{"sparse-n25", netlist.RandomGraph(r, 25, 5), 300},
		{"multi-n15", netlist.RandomGraph(r, 15, 150), 400},
		{"mixed-n300", netlist.RandomHyper(r, 300, 600, 2, 8), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			driveKernel(t, tc.nl, r, tc.steps)
		})
	}
}

// FuzzArrangementKernel interprets fuzz bytes as a netlist shape plus a move
// program, runs the program through the dense and the sparse form of the
// same arrangement, and cross-checks their deltas against each other and
// their final state against the recompute oracle, mirroring the netlist
// text fuzzer.
func FuzzArrangementKernel(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0xFF, 10, 20, 30})
	f.Add([]byte{2, 0, 1, 0xFF, 0, 1, 2, 3})
	f.Add([]byte{15, 0, 1, 2, 3, 4, 5, 0xFF, 200, 100, 9, 8, 7, 6, 5, 4, 3})
	f.Add([]byte{3})
	f.Add([]byte{9, 0x40, 3, 7, 1, 2, 0x41, 5, 8, 1, 2, 0xFF, 1, 0x88, 0x83, 0x85, 4, 0x86, 2, 7})
	// denseMaxCells cells, then one above: the largest dense netlist and
	// the smallest sparse one, both with windows over several gap blocks.
	f.Add([]byte{0xF7, 0, 95, 3, 60, 0x40, 17, 80, 40, 2, 0xFF, 0x85, 0x8A, 3, 0x90, 90, 0x81, 12, 70, 0x8F, 1, 50, 4})
	f.Add([]byte{0xF8, 1, 96, 5, 33, 0x41, 20, 88, 64, 7, 93, 0xFF, 96, 0x82, 0x84, 0x8C, 5, 0x91, 40, 0x80, 95, 2, 11, 0x9E})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// 2..20 cells, or denseMaxCells−7..denseMaxCells+8 when the top
		// nibble is 0xF, straddling the dense/sparse threshold.
		n := int(data[0])%19 + 2
		if data[0] >= 0xF0 {
			n = denseMaxCells - 7 + int(data[0]&0x0F)
		}
		data = data[1:]

		// Bytes up to the 0xFF sentinel are net pins: a net whose first
		// byte has bit 0x40 set takes three pins, any other net two, so
		// fuzzed netlists mix pair edges with multi-pin nets. Nets that
		// repeat a cell are skipped.
		var nets [][]int
		for len(data) >= 2 && data[0] != 0xFF {
			pins := []int{int(data[0]) % n, int(data[1]) % n}
			if data[0]&0x40 != 0 && len(data) >= 3 {
				pins = append(pins, int(data[2])%n)
			}
			data = data[len(pins):]
			if slices.Sort(pins); len(slices.Compact(pins)) == len(pins) {
				nets = append(nets, pins)
			}
		}
		if len(data) > 0 && data[0] == 0xFF {
			data = data[1:]
		}
		nl, err := netlist.New(n, nets)
		if err != nil {
			return // duplicate pins etc.: fine, as long as there is no panic
		}

		identity := Identity(nl).Order()
		dense := withForm(t, nl, identity, true)
		sparse := withForm(t, nl, identity, false)
		// Remaining bytes are the move program: each byte encodes move
		// class, positions, and whether to apply.
		for i := 0; i+1 < len(data); i += 2 {
			p, q := int(data[i])%n, int(data[i+1])%n
			var md, ms Move
			if data[i]&0x80 != 0 {
				md, ms = dense.EvalReinsert(p, q), sparse.EvalReinsert(p, q)
			} else {
				md, ms = dense.EvalSwap(p, q), sparse.EvalSwap(p, q)
			}
			sameMove(t, md, ms, fmt.Sprintf("move %d (%d,%d)", i/2, p, q))
			if data[i+1]&0x80 != 0 {
				md.Apply()
				ms.Apply()
			}
		}
		sameState(t, dense, sparse, "after fuzz program")
		checkAgainstOracle(t, dense, "dense after fuzz program")
		checkAgainstOracle(t, sparse, "sparse after fuzz program")
	})
}
