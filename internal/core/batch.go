package core

import "math/rand/v2"

// BatchEvaluator is an optional Solution capability: drawing and evaluating
// a block of candidate perturbations against the committed state in one
// call. A solution that can set up its evaluation scaffolding once per
// block — rather than once per proposal — amortizes that overhead across
// the block. internal/linarr and internal/maxcut implement it over their
// serial kernels, which keep no per-proposal state to amortize.
//
// Engines detect the capability with a type assertion and fall back to the
// serial Propose path when it is absent, so implementing it is purely an
// optimization and never changes what a solution can express.
type BatchEvaluator interface {
	Solution

	// ProposeBatch draws len(deltas) candidate perturbations with r — the
	// same draw recipe, in the same order, as len(deltas) consecutive
	// Propose calls — and fills deltas[i] with candidate i's cost change.
	// Every candidate is evaluated against the same committed state, and
	// none is applied. The batch stays valid until the next ProposeBatch,
	// Propose, or mutation of the solution.
	ProposeBatch(r *rand.Rand, deltas []float64)

	// ApplyBatch commits candidate i of the most recent ProposeBatch and
	// invalidates the rest of the batch (their deltas were measured against
	// the pre-move state). It panics if the batch has been invalidated.
	ApplyBatch(i int)
}
