package tensor

// This file holds the tape's lifetime rules: which buffers the backward
// sweep may release, and the live-byte ledger that measures it.
//
// Of everything the forward pass produced, only three classes of buffer
// must survive any given point of the backward sweep —
//
//   - Values of nodes the sweep has not reached yet (their closures still
//     read parent values),
//   - Grads of nodes the sweep has not reached yet (consumers accumulate
//     into them),
//   - Values pinned with Keep plus Var/Const leaves (read by the caller
//     after Backward).
//
// Everything else is dead. The tape's topological record order gives the
// last uses for free: every consumer of node i sits at an index greater
// than i, so by the time the descending sweep has run node i's own
// closure, no later closure can read i's Value or write i's Grad, and
// Backward releases both immediately. The plain record-order executor
// (NewReferenceTape) skips the release and computes the same bits; the
// differential harness AssertSchedEquiv and FuzzTapeSchedule pin that.

// Keep pins node values until Reset: Backward will not release them.
// Anything read after Backward returns — loss terms, the detached hidden
// state, harness probe outputs — must be pinned. Keep is idempotent and is
// a no-op for nil nodes.
func (t *Tape) Keep(ns ...*Node) {
	for _, n := range ns {
		if n != nil {
			n.keep = true
		}
	}
}

// ReleaseGrad returns n's gradient buffer to the arena immediately instead
// of waiting for Reset. Gradient sinks call it once they have accumulated
// a leaf's gradient; n.Grad must not be read afterwards.
func (t *Tape) ReleaseGrad(n *Node) {
	if n.Grad != nil {
		t.putBuf(&n.Grad)
	}
}

// ---- Live-byte accounting ----

// trackAlloc records b bytes of tape-owned buffer being checked out.
func (t *Tape) trackAlloc(b int64) {
	t.live += b
	if t.live > t.peak {
		t.peak = t.live
	}
}

// putBuf returns a tape-owned buffer to the arena and clears the pointer.
func (t *Tape) putBuf(m **Matrix) {
	t.live -= int64(len((*m).Data)) * 8
	Put(*m)
	*m = nil
}

// LiveBytes returns the bytes of tape-owned buffers (op outputs and
// gradients) currently checked out of the arena. Zero after Reset.
func (t *Tape) LiveBytes() int64 { return t.live }

// PeakLiveBytes returns the high-water mark of LiveBytes since the tape
// was created. It survives Reset, so it reports the per-window peak across
// a whole training run.
func (t *Tape) PeakLiveBytes() int64 { return t.peak }
