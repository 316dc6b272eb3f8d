package linarr

import "fmt"

// Move is a proposed, not-yet-applied modification of an Arrangement. At
// most one move may be outstanding per Arrangement: evaluating a new move
// invalidates the previous one, and applying a stale move panics. The
// method set satisfies core.Move.
//
// Moves are backed by per-arrangement storage (no heap allocation per
// proposal); an invalidated move must not be read, only discarded.
type Move interface {
	// Delta returns the change to the move's objective (Density by
	// default; TotalSpan when evaluated via an Objective-aware call).
	Delta() float64
	// DeltaInt returns the same change as an exact integer.
	DeltaInt() int
	// DensityDelta returns the density change regardless of objective.
	DensityDelta() int
	// SpanDelta returns the total-span change regardless of objective.
	SpanDelta() int
	// Apply commits the move.
	Apply()
}

// Objective selects which cost an arrangement move reports through Delta.
type Objective int

const (
	// Density is the paper's objective: the maximum gap-crossing count.
	Density Objective = iota
	// TotalSpan is the total-wirelength objective of [KANG83]-style linear
	// ordering: the sum of all net spans.
	TotalSpan
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Density:
		return "density"
	case TotalSpan:
		return "total-span"
	default:
		return "unknown"
	}
}

// move is a pairwise interchange of the cells at two positions — the
// perturbation class used throughout the paper's GOLA/NOLA experiments — or,
// with reinsert set, the removal of the cell at position p and its
// reinsertion at position q, shifting the cells in between — the paper's
// "single exchange" move ([COHO83a]).
type move struct {
	a         *Arrangement
	p, q      int
	reinsert  bool
	delta     int
	spanDelta int
	obj       Objective
	seq       uint64
}

// EvalSwap evaluates interchanging the cells at positions p and q. Only the
// two cells' pair edges and multi-pin nets are visited, and only gaps
// between p and q can change; the evaluation does not commit until Apply.
func (a *Arrangement) EvalSwap(p, q int) Move { return a.EvalSwapFor(p, q, Density) }

// EvalSwapFor is EvalSwap with an explicit reporting objective.
func (a *Arrangement) EvalSwapFor(p, q int, obj Objective) Move {
	return a.eval(&a.swapMv, p, q, false, obj)
}

// EvalReinsert evaluates removing the cell at position p and reinserting it
// at position q (cells in between shift toward p). Only nets with a pin in
// the shifted window [min(p,q), max(p,q)] can change span, so the
// evaluation visits the window's cells rather than every net.
func (a *Arrangement) EvalReinsert(p, q int) Move { return a.EvalReinsertFor(p, q, Density) }

// EvalReinsertFor is EvalReinsert with an explicit reporting objective.
func (a *Arrangement) EvalReinsertFor(p, q int, obj Objective) Move {
	return a.eval(&a.reinsMv, p, q, true, obj)
}

// eval fills the reusable move storage m with a fresh evaluation: the move's
// span changes are posted into the gap window and swept for the proposed
// density. Committed state is only read.
func (a *Arrangement) eval(m *move, p, q int, reinsert bool, obj Objective) *move {
	a.checkPos(p)
	a.checkPos(q)
	a.seq++
	// Field by field: a whole-struct store of the pointer-carrying move
	// costs a bulk write barrier on every evaluation.
	m.a, m.p, m.q, m.reinsert, m.obj, m.seq = a, p, q, reinsert, obj, a.seq
	m.delta, m.spanDelta = 0, 0
	a.spans = a.spans[:0]
	if p == q {
		return m
	}
	if reinsert {
		m.spanDelta = a.postReinsert(p, q)
	} else {
		m.spanDelta = a.postSwap(p, q)
	}
	m.delta = a.gaps.sweepMax() - a.dens
	return m
}

func (m *move) Delta() float64    { return float64(m.DeltaInt()) }
func (m *move) DensityDelta() int { return m.delta }
func (m *move) SpanDelta() int    { return m.spanDelta }

func (m *move) DeltaInt() int {
	if m.obj == TotalSpan {
		return m.spanDelta
	}
	return m.delta
}

// Apply commits the move: the evaluation's logged postings go into the
// committed gap counts and its multi-pin span changes into the span cache,
// then the cells move.
func (m *move) Apply() {
	a := m.a
	if m.seq != a.seq {
		panic("linarr: Apply on a stale move")
	}
	a.seq++
	if m.p != m.q {
		if a.left != nil {
			a.commitDense(m.p, m.q, m.reinsert)
		}
		a.gaps.commit()
		for _, c := range a.spans {
			a.netLo[c.slot], a.netHi[c.slot] = c.lo, c.hi
		}
		if m.reinsert {
			c := a.cellAt[m.p]
			if m.p < m.q {
				copy(a.cellAt[m.p:m.q], a.cellAt[m.p+1:m.q+1])
			} else {
				copy(a.cellAt[m.q+1:m.p+1], a.cellAt[m.q:m.p])
			}
			a.cellAt[m.q] = c
			for pos := min(m.p, m.q); pos <= max(m.p, m.q); pos++ {
				a.posOf[a.cellAt[pos]] = pos
			}
		} else {
			x, y := a.cellAt[m.p], a.cellAt[m.q]
			a.cellAt[m.p], a.cellAt[m.q] = y, x
			a.posOf[x], a.posOf[y] = m.q, m.p
		}
	}
	a.dens += m.delta
	a.spanSum += m.spanDelta
}

// postSwap posts interchanging the cells at positions p ≠ q into the gap
// window [min(p,q), max(p,q)) and returns the total-span change.
func (a *Arrangement) postSwap(p, q int) int {
	lo, hi := min(p, q), max(p, q)
	u, v := a.cellAt[lo], a.cellAt[hi]
	a.gaps.open(lo, hi)
	var spanDelta int
	if a.left != nil {
		spanDelta = a.walkPairs(lo, hi)
	} else {
		spanDelta = a.postPairs(u, v, lo, hi, 1) + a.postPairs(v, u, lo, hi, -1)
	}
	a.markEpoch++
	for _, c := range [2]int{u, v} {
		for _, k := range a.wiring.multi[c] {
			if a.netMark[k] == a.markEpoch {
				continue
			}
			a.netMark[k] = a.markEpoch
			nlo, nhi := a.nl.NumCells(), -1
			for _, pin := range a.wiring.pins[k] {
				pp := a.posOf[pin]
				switch pin {
				case u:
					pp = hi
				case v:
					pp = lo
				}
				nlo, nhi = min(nlo, pp), max(nhi, pp)
			}
			spanDelta += a.postNet(k, nlo, nhi)
		}
	}
	return spanDelta
}

// walkPairs posts the pair edges of interchanging the cells u and v at
// positions lo < hi in the dense form, by one walk over the window's
// interior. Write A(g) = Σ w[u][z] and B(g) = Σ w[v][z] over the cells z
// at positions lo < pz ≤ g. At window gap g, u's edges to cells at or left
// of g start crossing it and its edges to cells right of g (v excepted)
// stop; v's edges do the reverse. Gap g therefore changes by
//
//	2·(left[u] − left[v] + w[u][v] + inner + A(g) − B(g)) − (deg u − deg v)
//
// with inner = B(hi−1), the weight of v's edges into the interior: a
// constant posted to the window base plus one endpoint 2·(w[u][z] − w[v][z])
// at each interior position. The walk has no branch on the data. Its
// endpoints go into the difference array without a log entry; commitDense
// posts them again when the move is applied.
func (a *Arrangement) walkPairs(lo, hi int) (spanDelta int) {
	t := &a.gaps
	u, v := a.cellAt[lo], a.cellAt[hi]
	wu, wv := a.wiring.w[u], a.wiring.w[v]
	inner := 0
	for pz := lo + 1; pz < hi; pz++ {
		z := a.cellAt[pz]
		d := 2 * (wu[z] - wv[z])
		t.diff[pz] += d
		inner += wv[z]
		spanDelta += d * (hi - pz)
	}
	t.markInside()
	c := 2*(a.left[u]-a.left[v]+wu[v]+inner) - (a.wiring.deg[u] - a.wiring.deg[v])
	t.base += c
	return spanDelta + c*(hi-lo)
}

// commitDense readies the dense form for applying the move of positions
// p ≠ q, before the cells move and before the gap tree commits: a swap's
// walk endpoints are posted again, and the left weights change for the
// cells in [min(p,q), max(p,q)], the only ones that change sides relative
// to each other.
func (a *Arrangement) commitDense(p, q int, reinsert bool) {
	w := a.wiring.w // symmetric: w[z][u] == w[u][z]
	if !reinsert {
		lo, hi := min(p, q), max(p, q)
		u, v := a.cellAt[lo], a.cellAt[hi]
		wu, wv := w[u], w[v]
		gain, loss := wu[v], wv[u]
		t := &a.gaps
		for pz := lo + 1; pz < hi; pz++ {
			z := a.cellAt[pz]
			t.diff[pz] += 2 * (wu[z] - wv[z])
			a.left[z] += wv[z] - wu[z]
			gain += wu[z]
			loss += wv[z]
		}
		t.markInside()
		a.left[u] += gain
		a.left[v] -= loss
		return
	}
	// The cell c at p passes every cell between p and q (q included).
	c, s := a.cellAt[p], 1
	if q < p {
		p, q, s = q-1, p-1, -1
	}
	wc, gain := w[c], 0
	for pz := p + 1; pz <= q; pz++ {
		z := a.cellAt[pz]
		a.left[z] -= s * wc[z]
		gain += wc[z]
	}
	a.left[c] += s * gain
}

// postPairs posts the pair edges of cell c as it crosses the window from
// one end to the other (s = +1 from lo to hi, s = −1 from hi to lo), except
// its edge to the cell it trades places with, whose span is unchanged. With
// s = +1, an edge whose far end sits left of the window gains the whole
// window, one whose far end sits right of it loses the whole window, and
// one whose far end sits inside at pz trades [lo, pz) for [pz, hi); s = −1
// negates each case.
func (a *Arrangement) postPairs(c, other, lo, hi, s int) (spanDelta int) {
	t := &a.gaps
	for _, e := range a.wiring.pairs[c] {
		if e.cell == other {
			continue
		}
		w, pz := s*e.w, a.posOf[e.cell]
		switch {
		case pz < lo:
			t.base += w
			spanDelta += w * (hi - lo)
		case pz > hi:
			t.base -= w
			spanDelta -= w * (hi - lo)
		default:
			t.base -= w
			t.postInside(pz, 2*w)
			spanDelta += w * (hi + lo - 2*pz)
		}
	}
	return spanDelta
}

// postReinsert posts moving the cell at position p to position q ≠ p into
// the gap window [min(p,q), max(p,q)) and returns the total-span change.
// Positions outside the window are fixed, so only nets with a pin in it are
// visited.
func (a *Arrangement) postReinsert(p, q int) int {
	lo, hi := min(p, q), max(p, q)
	// newPos maps an old position to its post-move position.
	newPos := func(pos int) int {
		switch {
		case pos == p:
			return q
		case p < q && pos > p && pos <= q:
			return pos - 1
		case p > q && pos >= q && pos < p:
			return pos + 1
		default:
			return pos
		}
	}
	a.gaps.open(lo, hi)
	a.markEpoch++
	spanDelta := 0
	for pos := lo; pos <= hi; pos++ {
		c := a.cellAt[pos]
		np := newPos(pos)
		for _, e := range a.wiring.pairs[c] {
			pz := a.posOf[e.cell]
			if lo <= pz && pz < pos {
				continue // posted from its other end
			}
			npz := newPos(pz)
			oldLo, oldHi := min(pos, pz), max(pos, pz)
			nlo, nhi := min(np, npz), max(np, npz)
			if nlo != oldLo || nhi != oldHi {
				a.gaps.moveSpan(oldLo, oldHi, nlo, nhi, e.w)
				spanDelta += e.w * ((nhi - nlo) - (oldHi - oldLo))
			}
		}
		for _, k := range a.wiring.multi[c] {
			if a.netMark[k] == a.markEpoch {
				continue
			}
			a.netMark[k] = a.markEpoch
			nlo, nhi := a.nl.NumCells(), -1
			for _, pin := range a.wiring.pins[k] {
				pp := newPos(a.posOf[pin])
				nlo, nhi = min(nlo, pp), max(nhi, pp)
			}
			spanDelta += a.postNet(k, nlo, nhi)
		}
	}
	return spanDelta
}

func (a *Arrangement) checkPos(p int) {
	if p < 0 || p >= len(a.cellAt) {
		panic(fmt.Sprintf("linarr: position %d outside [0,%d)", p, len(a.cellAt)))
	}
}
