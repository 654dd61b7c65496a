package tensor

import (
	"fmt"
	"math"
)

// SchedProbe names the nodes AssertSchedEquiv compares across the
// reference and the default executions of one recorded computation.
type SchedProbe struct {
	// Loss is the scalar node passed to Backward. Required.
	Loss *Node
	// Outputs are op outputs whose post-Backward values are compared
	// bitwise. The harness pins them with Keep.
	Outputs []*Node
	// Leaves are differentiable leaves (Var nodes) whose gradients are
	// compared bitwise; a leaf whose Grad was never touched compares
	// equal to another untouched leaf.
	Leaves []*Node
}

// AssertSchedEquiv is the differential harness pinning the tape's lifetime
// release: it records the same computation twice — once on the reference
// tape, which releases nothing before Reset, once on a default tape —
// runs Backward on both, and verifies that the loss, every probe output,
// and every leaf gradient are bit-identical, that each tape's live-byte
// ledger returns to zero after Reset, and that each run's arena traffic is
// exactly balanced (gets == puts). build must be deterministic and
// self-contained: given a tape it records the computation (leaf matrices
// allocated with New, not Get) and reports the probe nodes. A nil error
// means the runs were indistinguishable.
func AssertSchedEquiv(build func(tp *Tape) SchedProbe) error {
	ref, err := runSchedProbe(NewReferenceTape(), build)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	def, err := runSchedProbe(NewTape(), build)
	if err != nil {
		return fmt.Errorf("default run: %w", err)
	}
	if err := compareBits("loss", ref.loss, def.loss); err != nil {
		return err
	}
	if len(ref.outs) != len(def.outs) {
		return fmt.Errorf("probe output count differs: %d vs %d", len(ref.outs), len(def.outs))
	}
	for k := range ref.outs {
		if err := compareBits(fmt.Sprintf("output %d", k), ref.outs[k], def.outs[k]); err != nil {
			return err
		}
	}
	if len(ref.grads) != len(def.grads) {
		return fmt.Errorf("probe leaf count differs: %d vs %d", len(ref.grads), len(def.grads))
	}
	for k := range ref.grads {
		if err := compareBits(fmt.Sprintf("leaf %d gradient", k), ref.grads[k], def.grads[k]); err != nil {
			return err
		}
	}
	return nil
}

// schedCapture is one run's bit-level snapshot.
type schedCapture struct {
	loss  []uint64
	outs  [][]uint64
	grads [][]uint64 // nil entry: gradient never allocated
}

// runSchedProbe executes build on the empty tape tp and snapshots the
// probe, checking the run's memory invariants on the way out.
func runSchedProbe(tp *Tape, build func(tp *Tape) SchedProbe) (schedCapture, error) {
	var snap schedCapture
	before := ReadPoolStats()
	p := build(tp)
	if p.Loss == nil {
		return snap, fmt.Errorf("probe has nil loss")
	}
	tp.Keep(p.Loss)
	tp.Keep(p.Outputs...)
	tp.Backward(p.Loss)
	snap.loss = bitsOf(p.Loss.Value)
	for _, o := range p.Outputs {
		snap.outs = append(snap.outs, bitsOf(o.Value))
	}
	for _, l := range p.Leaves {
		if l.Grad != nil {
			snap.grads = append(snap.grads, bitsOf(l.Grad))
		} else {
			snap.grads = append(snap.grads, nil)
		}
	}
	tp.Reset()
	if lb := tp.LiveBytes(); lb != 0 {
		return snap, fmt.Errorf("tape live bytes %d after Reset, want 0", lb)
	}
	after := ReadPoolStats()
	if d := (after.Gets - after.Puts) - (before.Gets - before.Puts); d != 0 {
		return snap, fmt.Errorf("arena get/put imbalance: %+d buffers leaked", d)
	}
	return snap, nil
}

// bitsOf snapshots a matrix's IEEE-754 bit patterns (nil-safe).
func bitsOf(m *Matrix) []uint64 {
	if m == nil {
		return nil
	}
	bits := make([]uint64, len(m.Data))
	for i, v := range m.Data {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// compareBits reports the first bitwise mismatch between two snapshots.
func compareBits(what string, a, b []uint64) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: allocated in one run but not the other", what)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: element %d differs: %x (%g) vs %x (%g)",
				what, i, a[i], math.Float64frombits(a[i]), b[i], math.Float64frombits(b[i]))
		}
	}
	return nil
}
