package linarr

import "slices"

// gapTree holds the arrangement's per-gap crossing counts in fixed-size
// blocks of ~√n leaves, each block carrying its committed maximum, and
// evaluates moves against them with a window sweep.
//
// A swap or reinsert of positions p and q changes counts only inside the
// window of gaps [min(p,q), max(p,q)). An evaluation opens that window and
// posts every changed net's old and new span endpoints into a window-local
// difference array: an endpoint at or left of the window start lands in
// base, one at or right of the window end is dropped, since the change is
// zero outside the window. One prefix sweep over the window then yields the
// proposed counts. A block the window covers fully and holding no posted
// endpoint is shifted uniformly by the running sum, so it is read as
// blockMax + run in O(1); blocks outside the window contribute their
// committed maxima, and the window's two edge blocks rescan the leaves the
// window leaves out. An evaluation therefore costs O(endpoints posted +
// leaves of the posted and edge blocks + blocks).
//
// The sweep consumes the difference array as it reads it, so it is all-zero
// between evaluations and a rejected move needs no rollback. The postings
// also stay in a short log (base plus the inside endpoints) until the next
// window opens; commit replays that log into the committed counts. A caller
// that writes the difference array directly (the dense pair walk, see
// markInside) keeps no log entry and writes its endpoints again before
// commit.
type gapTree struct {
	n      int  // number of gaps (leaves)
	shift  uint // log2 of the block size, a power of two ≥ √n (min 16)
	blocks int

	cut      []int // committed crossing count of each gap
	blockMax []int // committed maximum of each block

	// Window scratch for the move last posted.
	lo, hi int        // the window [lo, hi)
	base   int        // sum of the endpoints posted at or left of lo
	log    []endpoint // the endpoints posted strictly inside the window
	diff   []int      // diff[g] = sum of the endpoints at gap g; zero after a sweep
	posted []bool     // posted[b]: block b holds a diff entry
}

type endpoint struct{ g, d int }

// init sizes the tree for n gaps (n may be 0 for a single-cell arrangement)
// with all counts zero. All scratch is allocated here once; evaluation never
// allocates.
func (t *gapTree) init(n int) {
	t.n = n
	t.shift = 4 // blocks of ≥ 16 keep per-block bookkeeping negligible
	for 1<<(2*t.shift) < n {
		t.shift++
	}
	t.blocks = (n + 1<<t.shift - 1) >> t.shift
	t.cut = make([]int, n)
	t.diff = make([]int, n)
	t.blockMax = make([]int, t.blocks)
	t.posted = make([]bool, t.blocks)
}

// build resets the committed counts to values (len(values) == n).
func (t *gapTree) build(values []int) {
	copy(t.cut, values)
	for b := 0; b < t.blocks; b++ {
		lo, hi := t.blockBounds(b)
		t.blockMax[b] = maxOf(t.cut[lo:hi])
	}
}

func (t *gapTree) blockBounds(b int) (lo, hi int) {
	lo = b << t.shift
	return lo, min(lo+1<<t.shift, t.n)
}

// open starts posting a move whose changes lie in the gap window [lo, hi).
func (t *gapTree) open(lo, hi int) {
	t.lo, t.hi, t.base = lo, hi, 0
	t.log = t.log[:0]
}

// post adds d to every gap of the window at or right of gap e.
func (t *gapTree) post(e, d int) {
	switch {
	case e <= t.lo:
		t.base += d
	case e < t.hi:
		t.postInside(e, d)
	}
}

// postInside is post for an endpoint known to lie strictly inside the
// window.
func (t *gapTree) postInside(e, d int) {
	t.diff[e] += d
	t.posted[e>>t.shift] = true
	t.log = append(t.log, endpoint{e, d})
}

// markInside marks every block holding a gap strictly inside the window as
// posted, for a caller that writes diff there directly instead of through
// postInside (and so also keeps no log entry).
func (t *gapTree) markInside() {
	if t.lo+1 >= t.hi {
		return
	}
	for b := (t.lo + 1) >> t.shift; b <= (t.hi-1)>>t.shift; b++ {
		t.posted[b] = true
	}
}

// moveSpan posts a span of weight w moving from gaps [oldLo, oldHi) to
// [lo, hi).
func (t *gapTree) moveSpan(oldLo, oldHi, lo, hi, w int) {
	t.post(lo, w)
	t.post(hi, -w)
	t.post(oldLo, -w)
	t.post(oldHi, w)
}

// sweepMax returns the maximum gap count with the posted changes applied and
// clears the difference array. Committed state is only read.
func (t *gapTree) sweepMax() int {
	bl, bh := t.lo>>t.shift, (t.hi-1)>>t.shift
	m := max(maxOf(t.blockMax[:bl]), maxOf(t.blockMax[bh+1:]))
	// The edge blocks' leaves outside the window keep their committed counts.
	lo, _ := t.blockBounds(bl)
	_, hi := t.blockBounds(bh)
	m = max(m, maxOf(t.cut[lo:t.lo]), maxOf(t.cut[t.hi:hi]))
	run := t.base
	for b := bl; b <= bh; b++ {
		lo, hi := t.blockBounds(b)
		s, e := max(lo, t.lo), min(hi, t.hi)
		switch {
		case t.posted[b]:
			t.posted[b] = false
			for g := s; g < e; g++ {
				run += t.diff[g]
				t.diff[g] = 0
				m = max(m, t.cut[g]+run)
			}
		case s == lo && e == hi:
			m = max(m, t.blockMax[b]+run) // the block skip
		default:
			m = max(m, maxOf(t.cut[s:e])+run)
		}
	}
	return m
}

// commit replays the logged postings of the last swept window, together
// with any endpoints the caller wrote into diff again since the sweep, into
// the committed counts.
func (t *gapTree) commit() {
	for _, p := range t.log {
		t.diff[p.g] += p.d
		t.posted[p.g>>t.shift] = true
	}
	run := t.base
	for b := t.lo >> t.shift; b <= (t.hi-1)>>t.shift; b++ {
		lo, hi := t.blockBounds(b)
		s, e := max(lo, t.lo), min(hi, t.hi)
		shifted := !t.posted[b] && s == lo && e == hi
		t.posted[b] = false
		for g := s; g < e; g++ {
			run += t.diff[g]
			t.diff[g] = 0
			t.cut[g] += run
		}
		if shifted {
			t.blockMax[b] += run
		} else {
			t.blockMax[b] = maxOf(t.cut[lo:hi])
		}
	}
}

// committedMax returns the committed maximum gap count.
func (t *gapTree) committedMax() int { return maxOf(t.blockMax) }

// committedAt returns the committed count of gap g in O(1).
func (t *gapTree) committedAt(g int) int { return t.cut[g] }

// clone returns an independent copy of the committed state.
func (t *gapTree) clone() gapTree {
	c := *t
	c.cut = slices.Clone(t.cut)
	c.blockMax = slices.Clone(t.blockMax)
	c.diff = make([]int, t.n)
	c.posted = make([]bool, t.blocks)
	c.log = nil
	return c
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
