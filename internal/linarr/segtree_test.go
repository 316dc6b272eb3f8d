package linarr

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// naiveGaps models gapTree's window sweep with plain slices: the committed
// counts plus a dense pending array, filled post by post with the sweep's
// clipping rule (an endpoint at or left of the window start covers the
// whole window; one at or right of its end covers nothing).
type naiveGaps struct {
	committed []int
	pending   []int
}

func (g *naiveGaps) post(lo, hi, e, d int) {
	for i := max(e, lo); i < hi; i++ {
		g.pending[i] += d
	}
}

// proposed returns the proposed maximum and minimum count.
func (g *naiveGaps) proposed() (hi, lo int) {
	hi, lo = 0, 0
	for i, v := range g.committed {
		hi, lo = max(hi, v+g.pending[i]), min(lo, v+g.pending[i])
	}
	return hi, lo
}

func (g *naiveGaps) commit() {
	for i := range g.committed {
		g.committed[i] += g.pending[i]
	}
	clear(g.pending)
}

// checkTree compares the tree's committed state with the model and checks
// that the difference array is all-zero, as it must be between evaluations.
func (g *naiveGaps) checkTree(t *testing.T, tree *gapTree, label string) {
	t.Helper()
	for i, v := range g.committed {
		if got := tree.committedAt(i); got != v {
			t.Fatalf("%s: committedAt(%d) = %d, want %d", label, i, got, v)
		}
	}
	for b := 0; b < tree.blocks; b++ {
		lo, hi := tree.blockBounds(b)
		if got, want := tree.blockMax[b], maxOf(g.committed[lo:hi]); got != want {
			t.Fatalf("%s: blockMax[%d] = %d, want %d", label, b, got, want)
		}
	}
	if slices.ContainsFunc(tree.diff, func(d int) bool { return d != 0 }) || slices.Contains(tree.posted, true) {
		t.Fatalf("%s: difference array not cleared", label)
	}
}

// TestGapTreeAgainstNaive drives random windows and postings through the
// sweep and checks the window maximum, the commit of the swept postings, and
// that both leave the difference array clean, across the block-size regimes. Sparse postings over wide
// windows exercise the block skip; dense ones the leaf sweep.
func TestGapTreeAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 15, 16, 17, 63, 64, 100, 257, 400, 1100} {
		values := make([]int, n)
		for i := range values {
			values[i] = 3 + r.IntN(6)
		}
		var tree gapTree
		tree.init(n)
		tree.build(values)
		model := &naiveGaps{committed: slices.Clone(values), pending: make([]int, n)}
		model.checkTree(t, &tree, "after build")
		if got, want := tree.committedMax(), maxOf(values); got != want {
			t.Fatalf("n=%d: committedMax = %d, want %d", n, got, want)
		}

		for step := 0; step < 600; step++ {
			lo := r.IntN(n)
			hi := lo + 1 + r.IntN(n-lo)
			tree.open(lo, hi)
			for k := r.IntN(6); k > 0; k-- {
				// Endpoints may fall outside the window on either side.
				e := r.IntN(n+2) - 1
				d := []int{-1, 1, 2}[r.IntN(3)]
				tree.post(e, d)
				model.post(lo, hi, e, d)
			}
			want, least := model.proposed()
			if least < 0 {
				// Crossing counts are never negative; drop this posting.
				tree.sweepMax()
				clear(model.pending)
				model.checkTree(t, &tree, "after dropped sweep")
				continue
			}
			if got := tree.sweepMax(); got != want {
				t.Fatalf("n=%d step %d window [%d,%d): sweepMax = %d, want %d", n, step, lo, hi, got, want)
			}
			if r.IntN(2) == 0 {
				clear(model.pending)
			} else {
				tree.commit()
				model.commit()
				if got := tree.committedMax(); got != want {
					t.Fatalf("n=%d step %d: committedMax after commit = %d, want %d", n, step, got, want)
				}
			}
			model.checkTree(t, &tree, "after sweep")
		}
	}
}

// TestGapTreeBlockSkip pins that the sweep reads a fully covered block with
// no posted endpoint from its summary, and rescans a block it posted into.
// The test plants a block maximum no leaf holds: only the summary read can
// return it.
func TestGapTreeBlockSkip(t *testing.T) {
	var tree gapTree
	tree.init(100) // blocks of 16 gaps
	values := make([]int, 100)
	for i := range values {
		values[i] = 1
	}
	tree.build(values)
	tree.blockMax[2] = 9 // gaps 32..47 all hold 1

	tree.open(10, 90)
	tree.post(10, 2) // at the window start: shifts the whole window by 2
	if got, want := tree.sweepMax(), 11; got != want {
		t.Fatalf("skipped block: sweepMax = %d, want blockMax+run = %d", got, want)
	}

	tree.open(10, 90)
	tree.post(10, 2)
	tree.post(40, 1) // inside block 2: the block must be swept leaf by leaf
	if got, want := tree.sweepMax(), 4; got != want {
		t.Fatalf("posted block: sweepMax = %d, want %d from its leaves, not its planted summary", got, want)
	}
	tree.blockMax[2] = 1

	// Commit shifts a skipped block's summary along with its leaves.
	tree.open(10, 90)
	tree.post(10, 2)
	tree.post(40, 1)
	tree.sweepMax()
	tree.commit()
	if got, want := tree.blockMax[1], 3; got != want {
		t.Fatalf("shifted block after commit: blockMax = %d, want %d", got, want)
	}
	if got, want := tree.blockMax[2], 4; got != want {
		t.Fatalf("posted block after commit: blockMax = %d, want %d", got, want)
	}
	if got, want := tree.committedAt(5), 1; got != want {
		t.Fatalf("gap left of the window changed: %d, want %d", got, want)
	}
	if got, want := tree.committedAt(95), 1; got != want {
		t.Fatalf("gap right of the window changed: %d, want %d", got, want)
	}
}

func TestGapTreeCloneIsIndependent(t *testing.T) {
	var tree gapTree
	tree.init(40)
	values := make([]int, 40)
	for i := range values {
		values[i] = i % 5
	}
	tree.build(values)

	cl := tree.clone()
	cl.open(10, 20)
	cl.post(10, 7)
	cl.sweepMax()
	cl.commit()
	if got, want := tree.committedAt(12), 2; got != want {
		t.Fatalf("clone commit leaked into original: committedAt(12) = %d, want %d", got, want)
	}
	if got, want := cl.committedAt(12), 9; got != want {
		t.Fatalf("clone committedAt(12) = %d, want %d", got, want)
	}
	if got, want := tree.committedMax(), 4; got != want {
		t.Fatalf("original committedMax = %d, want %d", got, want)
	}
}

func TestGapTreeZeroGaps(t *testing.T) {
	var tree gapTree
	tree.init(0)
	tree.build(nil)
	if got := tree.committedMax(); got != 0 {
		t.Fatalf("committedMax on empty tree = %d, want 0", got)
	}
	if tree.clone().n != 0 {
		t.Fatal("clone of empty tree is not empty")
	}
}
