// Package linarr implements linear arrangements of netlist cells and the
// density objective of the paper's §4: place the cells on a line so as to
// minimize the maximum number of nets crossing between any pair of adjacent
// positions. With two-pin nets this is the GOLA problem; with multi-pin nets
// it is NOLA (the board permutation problem of [GOTO77] and [COHO83a]).
//
// The package provides incremental evaluation of pairwise interchanges and
// single-exchange (remove/reinsert) moves by a window sweep over blocked gap
// counts (see segtree.go): a move of positions p and q costs O(nets touched
// + blocks + leaves of the blocks it posts into), with two-pin nets merged
// into weighted cell-pair edges read straight from the positions. On
// netlists of at most denseMaxCells cells a swap reads its pair edges from
// a per-cell weight row instead, in one walk over the window. It also
// provides deterministic local search and adapters implementing
// core.Solution / core.Descender. The proposal path performs no heap
// allocations.
package linarr

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

// Arrangement is a mutable linear ordering of a netlist's cells together
// with incrementally maintained gap-crossing counts.
//
// Gap g (0 ≤ g < NumCells−1) separates positions g and g+1. A net whose
// pins span positions [lo, hi] crosses every gap in [lo, hi). The density is
// the maximum crossing count over all gaps.
//
// An Eval* call posts the move's span changes into the gap tree's window
// scratch and sweeps it; committed state is never mutated by an evaluation,
// so a rejected move needs no undo. Apply commits the evaluation's logged
// postings and multi-pin span changes. The seq counter detects stale moves,
// so at most one proposal is ever outstanding and the move structs
// themselves can be reused per arrangement.
type Arrangement struct {
	nl     *netlist.Netlist
	wiring *wiring // the netlist's evaluation form, shared by clones
	cellAt []int   // cellAt[pos] = cell occupying the position
	posOf  []int   // posOf[cell] = the cell's position
	gaps   gapTree // committed gap-crossing counts plus the window sweep
	netLo  []int   // netLo[k] = leftmost pin position of multi-pin slot k
	netHi  []int   // netHi[k] = rightmost pin position of multi-pin slot k
	// left[c] is the weight of c's pair edges to cells on its left; kept
	// only by the dense form (nil in the sparse form).
	left []int
	dens int
	// spanSum is the total wirelength: Σ over nets of (netHi − netLo).
	spanSum int

	spans     []spanChange // multi-pin span changes of the last evaluation
	netMark   []int        // multi-pin slot dedup within one move
	markEpoch int
	seq       uint64
	swapMv    move
	reinsMv   move

	// batch is the lazily allocated batched-evaluation log (see batch.go);
	// clones start without one.
	batch *batchEval
}

// denseMaxCells is the largest cell count evaluated in the dense form. The
// dense swap walks every position of the window once and the sparse one
// visits every pair edge of the two swapped cells once, so the dense form
// wins while windows are short next to the cells' degrees. At 10 nets per
// cell, the two are level at 100 cells on BenchmarkSwapEvalLarge's widest
// windows; with uniform random pairs (BenchmarkSwapEvalForms) the dense
// form leads up to 192 cells and trails at 400 (EXPERIMENTS.md). The
// threshold stays below the level point, which also caps the weight rows
// at 96² words per netlist.
const denseMaxCells = 96

// wiring is a netlist arranged for evaluation. Two-pin nets are merged per
// cell into weighted neighbour edges (parallel nets become one edge), whose
// spans are read from the positions; multi-pin nets keep a span cache in
// the arrangement, indexed by slot (multi-pin nets in netlist order), so a
// netlist with only two-pin nets caches nothing.
//
// Netlists of at most denseMaxCells cells also get the dense form: a weight
// row per cell, which lets a swap evaluate its pair edges by one walk over
// the window (see walkPairs) instead of visiting each edge.
type wiring struct {
	pairs [][]pairEdge // pairs[c] = c's two-pin neighbours
	multi [][]int      // multi[c] = slots of the multi-pin nets incident to c
	pins  [][]int      // pins[k] = the cells of multi-pin slot k

	// Dense form only (nil otherwise).
	w   [][]int // w[u][z] = weight of the pair edge u–z, 0 if none
	deg []int   // deg[u] = Σ_z w[u][z]
}

type pairEdge struct{ cell, w int }

// spanChange is a multi-pin slot's new span.
type spanChange struct{ slot, lo, hi int }

// newWiring builds the netlist's evaluation form, dense or sparse by cell
// count alone.
func newWiring(nl *netlist.Netlist) *wiring {
	return buildWiring(nl, nl.NumCells() <= denseMaxCells)
}

// buildWiring builds the sparse form, plus the dense one when dense is set.
func buildWiring(nl *netlist.Netlist, dense bool) *wiring {
	w := &wiring{
		pairs: make([][]pairEdge, nl.NumCells()),
		multi: make([][]int, nl.NumCells()),
	}
	slot := make([]int, nl.NumNets())
	for n := range slot {
		if len(nl.Net(n)) > 2 {
			slot[n] = len(w.pins)
			w.pins = append(w.pins, nl.Net(n))
		}
	}
	var es []pairEdge
	for c := range w.pairs {
		es = es[:0]
		for _, n := range nl.CellNets(c) {
			pins := nl.Net(n)
			if len(pins) > 2 {
				w.multi[c] = append(w.multi[c], slot[n])
				continue
			}
			es = append(es, pairEdge{cell: pins[0] + pins[1] - c, w: 1})
		}
		slices.SortFunc(es, func(x, y pairEdge) int { return x.cell - y.cell })
		for _, e := range es {
			if k := len(w.pairs[c]) - 1; k >= 0 && w.pairs[c][k].cell == e.cell {
				w.pairs[c][k].w++
			} else {
				w.pairs[c] = append(w.pairs[c], e)
			}
		}
	}
	if dense {
		n := nl.NumCells()
		w.w, w.deg = make([][]int, n), make([]int, n)
		flat := make([]int, n*n)
		for u, es := range w.pairs {
			w.w[u] = flat[u*n : (u+1)*n : (u+1)*n]
			for _, e := range es {
				w.w[u][e.cell] = e.w
				w.deg[u] += e.w
			}
		}
	}
	return w
}

// New builds an arrangement placing cell order[i] at position i. order must
// be a permutation of 0..NumCells-1.
func New(nl *netlist.Netlist, order []int) (*Arrangement, error) {
	return newArrangement(nl, order, newWiring(nl))
}

// newArrangement is New over a prebuilt wiring of nl.
func newArrangement(nl *netlist.Netlist, order []int, w *wiring) (*Arrangement, error) {
	n := nl.NumCells()
	if len(order) != n {
		return nil, fmt.Errorf("linarr: order has %d entries, netlist has %d cells", len(order), n)
	}
	multi := len(w.pins)
	a := &Arrangement{
		nl:      nl,
		wiring:  w,
		cellAt:  slices.Clone(order),
		posOf:   make([]int, n),
		netLo:   make([]int, multi),
		netHi:   make([]int, multi),
		netMark: make([]int, multi),
	}
	if w.w != nil {
		a.left = make([]int, n)
	}
	a.gaps.init(max(n-1, 0))
	seen := make([]bool, n)
	for pos, c := range order {
		if c < 0 || c >= n || seen[c] {
			return nil, fmt.Errorf("linarr: order is not a permutation: entry %d = %d", pos, c)
		}
		seen[c] = true
		a.posOf[c] = pos
	}
	a.recompute()
	return a, nil
}

// MustNew is New but panics on error, for generators and tests.
func MustNew(nl *netlist.Netlist, order []int) *Arrangement {
	a, err := New(nl, order)
	if err != nil {
		panic(err)
	}
	return a
}

// Random returns an arrangement with a uniformly random cell order.
func Random(nl *netlist.Netlist, r *rand.Rand) *Arrangement {
	order := make([]int, nl.NumCells())
	rng.Perm(r, order)
	return MustNew(nl, order)
}

// Identity returns the arrangement placing cell i at position i.
func Identity(nl *netlist.Netlist) *Arrangement {
	order := make([]int, nl.NumCells())
	for i := range order {
		order[i] = i
	}
	return MustNew(nl, order)
}

// recompute rebuilds spans, gap counts, left weights and density from the
// permutation — O(total pins). Used at construction.
func (a *Arrangement) recompute() {
	counts := make([]int, max(a.nl.NumCells()-1, 0))
	a.spanSum = 0
	k := 0 // multi-pin slots follow netlist order
	for n := 0; n < a.nl.NumNets(); n++ {
		pins := a.nl.Net(n)
		lo, hi := a.nl.NumCells(), -1
		for _, c := range pins {
			lo = min(lo, a.posOf[c])
			hi = max(hi, a.posOf[c])
		}
		if len(pins) > 2 {
			a.netLo[k], a.netHi[k] = lo, hi
			k++
		}
		a.spanSum += hi - lo
		for g := lo; g < hi; g++ {
			counts[g]++
		}
	}
	a.gaps.build(counts)
	a.dens = a.gaps.committedMax()
	for c := range a.left {
		a.left[c] = 0
		for _, e := range a.wiring.pairs[c] {
			if a.posOf[e.cell] < a.posOf[c] {
				a.left[c] += e.w
			}
		}
	}
}

// postNet posts multi-pin slot k's span change to [lo, hi] into the gap
// window, logs it for Apply, and returns its span delta. Each slot is
// posted at most once per move.
func (a *Arrangement) postNet(k, lo, hi int) int {
	oldLo, oldHi := a.netLo[k], a.netHi[k]
	if lo == oldLo && hi == oldHi {
		return 0
	}
	a.gaps.moveSpan(oldLo, oldHi, lo, hi, 1)
	a.spans = append(a.spans, spanChange{k, lo, hi})
	return (hi - lo) - (oldHi - oldLo)
}

// Density returns the current maximum gap-crossing count — the objective of
// both GOLA and NOLA.
func (a *Arrangement) Density() int { return a.dens }

// TotalSpan returns the sum over nets of their position spans — the total
// wirelength objective of the linear-ordering placement formulations the
// paper's §4.1 cites ([KANG83]). It equals the sum of all gap-crossing
// counts.
func (a *Arrangement) TotalSpan() int { return a.spanSum }

// NumCells returns the number of placed cells.
func (a *Arrangement) NumCells() int { return a.nl.NumCells() }

// Netlist returns the underlying (immutable) netlist.
func (a *Arrangement) Netlist() *netlist.Netlist { return a.nl }

// CellAt returns the cell occupying the given position.
func (a *Arrangement) CellAt(pos int) int { return a.cellAt[pos] }

// PosOf returns the position of the given cell.
func (a *Arrangement) PosOf(cell int) int { return a.posOf[cell] }

// Order returns a copy of the current cell order (position → cell).
func (a *Arrangement) Order() []int { return slices.Clone(a.cellAt) }

// GapCut returns the committed crossing count of gap g in O(1), for
// diagnostics and tests. Evaluation never touches committed counts, so an
// evaluated-but-unapplied move stays valid across the call.
func (a *Arrangement) GapCut(g int) int { return a.gaps.committedAt(g) }

// Clone returns a deep copy sharing only the immutable netlist and its
// wiring. An outstanding proposal on the receiver is not carried over (the
// receiver and its pending move are untouched). It copies O(n + multi-pin
// nets) words.
func (a *Arrangement) Clone() *Arrangement {
	return &Arrangement{
		nl:      a.nl,
		wiring:  a.wiring,
		cellAt:  slices.Clone(a.cellAt),
		posOf:   slices.Clone(a.posOf),
		gaps:    a.gaps.clone(),
		netLo:   slices.Clone(a.netLo),
		netHi:   slices.Clone(a.netHi),
		left:    slices.Clone(a.left),
		dens:    a.dens,
		spanSum: a.spanSum,
		netMark: make([]int, len(a.netMark)),
	}
}
