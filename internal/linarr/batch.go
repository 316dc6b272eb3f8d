package linarr

import (
	"fmt"
	"math/rand/v2"

	"mcopt/internal/core"
)

var _ core.BatchEvaluator = (*Solution)(nil)

// batchEval is the candidate log of the outstanding ProposeBatch: positions
// and both objective deltas, index-aligned with the deltas slice handed to
// ProposeBatch. It is allocated lazily on first use and reused for every
// later batch, so steady-state batched evaluation allocates nothing.
type batchEval struct {
	ps, qs []int
	dens   []int
	spans  []int
	seq    uint64 // arrangement seq the batch was drawn against
}

// ProposeBatch draws len(deltas) candidate perturbations — the same
// (p, q) recipe, in the same order, as len(deltas) Propose calls — and
// evaluates each against the committed state. Evaluation writes only the
// gap tree's window scratch, so every candidate runs through the serial
// kernel's sweep and nothing needs undoing between candidates. See
// core.BatchEvaluator.
func (s *Solution) ProposeBatch(r *rand.Rand, deltas []float64) {
	a := s.arr
	if a.batch == nil {
		a.batch = &batchEval{}
	}
	be := a.batch
	be.ps, be.qs = be.ps[:0], be.qs[:0]
	be.dens, be.spans = be.dens[:0], be.spans[:0]
	for i := range deltas {
		m := s.propose(r)
		be.ps, be.qs = append(be.ps, m.p), append(be.qs, m.q)
		be.dens, be.spans = append(be.dens, m.delta), append(be.spans, m.spanDelta)
		deltas[i] = m.Delta()
	}
	be.seq = a.seq
}

// ApplyBatch commits candidate i of the outstanding batch by re-evaluating
// it (the window scratch holds the last candidate's postings) and applying;
// the arrangement's seq then invalidates the batch.
func (s *Solution) ApplyBatch(i int) {
	a := s.arr
	be := a.batch
	if be == nil || be.seq != a.seq {
		panic("linarr: ApplyBatch on a stale batch")
	}
	if i < 0 || i >= len(be.ps) {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d) outside batch of %d", i, len(be.ps)))
	}
	m := s.eval(be.ps[i], be.qs[i])
	if m.delta != be.dens[i] || m.spanDelta != be.spans[i] {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d): logged deltas (%d,%d) != re-evaluated (%d,%d)",
			i, be.dens[i], be.spans[i], m.delta, m.spanDelta))
	}
	m.Apply()
}
