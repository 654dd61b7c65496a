// Package baselines defines the common interface implemented by the six
// comparison generators of the paper's evaluation (TagGen, TGGAN, TIGGER,
// Dymond, GRAN, GenCAT) plus the Normal attribute baseline. TagGen, TGGAN
// and TIGGER are three configurations of one walk skeleton in subpackage
// walker; the others each live in their own subpackage. This package holds
// the shared contract.
package baselines

import "vrdag/internal/dyngraph"

// Generator is a dynamic-graph generator that learns from an observed
// sequence and synthesises new sequences of a requested length.
type Generator interface {
	// Name returns the baseline's display name as used in the paper.
	Name() string
	// Fit estimates the generator's parameters from an observed sequence.
	Fit(g *dyngraph.Sequence) error
	// Generate synthesises a new sequence with T snapshots. Fit must have
	// been called first.
	Generate(t int) (*dyngraph.Sequence, error)
}
