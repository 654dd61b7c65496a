package tensor

import "testing"

// deepChain records a chain of length steps of elementwise ops over an
// n×n variable and returns the loss and the leaf.
func deepChain(tp *Tape, n, steps int, seed int64) (loss, leaf *Node) {
	leaf = tp.Var(testMat(n, n, seed))
	cur := leaf
	for s := 0; s < steps; s++ {
		cur = tp.Tanh(tp.MatMul(cur, tp.Scale(cur, 0.01)))
	}
	return tp.SumAll(cur), leaf
}

// TestSchedReleaseShrinksPeak pins the point of lifetime release: on a
// deep chain the default tape's peak live bytes must come in well under
// the reference tape's, and the tape must be empty (zero live bytes) once
// Backward has consumed it.
func TestSchedReleaseShrinksPeak(t *testing.T) {
	run := func(tp *Tape) (peak int64) {
		loss, _ := deepChain(tp, 64, 24, 7)
		tp.Keep(loss)
		tp.Backward(loss)
		if !tp.reference {
			// Everything but the kept loss scalar and the leaf's (Var)
			// gradient should be gone already.
			if lb := tp.LiveBytes(); lb > 64*64*8+4096 {
				t.Fatalf("default tape: %d live bytes after Backward, want ~leaf grad only", lb)
			}
		}
		tp.Reset()
		if lb := tp.LiveBytes(); lb != 0 {
			t.Fatalf("%d live bytes after Reset, want 0", lb)
		}
		return tp.PeakLiveBytes()
	}
	plain := run(NewReferenceTape())
	sched := run(NewTape())
	if sched >= plain*6/10 {
		t.Fatalf("default peak %d >= 60%% of reference peak %d", sched, plain)
	}
}

// TestSchedResetBalance covers the Reset interaction for completed and
// cancelled (recorded but never differentiated — the FitContext
// cancellation path) epochs: in every case the arena's get/put delta for
// the episode must be exactly zero.
func TestSchedResetBalance(t *testing.T) {
	episodes := []struct {
		name string
		run  func(tp *Tape)
	}{
		{"completed", func(tp *Tape) {
			loss, _ := deepChain(tp, 16, 6, 11)
			tp.Keep(loss)
			tp.Backward(loss)
			tp.Reset()
		}},
		{"cancelled-before-backward", func(tp *Tape) {
			loss, _ := deepChain(tp, 16, 6, 12)
			tp.Keep(loss)
			tp.Reset() // mid-epoch cancellation: no Backward
		}},
		{"cancelled-with-open-grads", func(tp *Tape) {
			loss, leaf := deepChain(tp, 16, 6, 13)
			_ = loss
			leaf.grad() // a gradient buffer was already allocated
			tp.Reset()
		}},
		// The two episodes below keep the names they had when they ran in
		// the since-deleted rematerialization segments: a Keep-pinned
		// value carried from step to step, like the trainer's hidden state.
		{"checkpointed-completed", func(tp *Tape) {
			leaf := tp.Var(testMat(16, 16, 14))
			cur := leaf
			for s := 0; s < 3; s++ {
				cur = tp.Tanh(tp.MatMul(cur, cur))
				tp.Keep(cur)
			}
			loss := tp.SumAll(cur)
			tp.Keep(loss)
			tp.Backward(loss)
			tp.Reset()
		}},
		{"checkpointed-cancelled", func(tp *Tape) {
			leaf := tp.Var(testMat(16, 16, 15))
			cur := leaf
			for s := 0; s < 3; s++ {
				cur = tp.Tanh(tp.MatMul(cur, cur))
				tp.Keep(cur)
			}
			tp.Reset() // pinned values must be released exactly once
		}},
	}
	for _, tape := range []struct {
		name string
		new  func() *Tape
	}{{"plain", NewReferenceTape}, {"sched", NewTape}} {
		for _, ep := range episodes {
			t.Run(tape.name+"/"+ep.name, func(t *testing.T) {
				tp := tape.new()
				before := ReadPoolStats()
				ep.run(tp)
				after := ReadPoolStats()
				if d := (after.Gets - after.Puts) - (before.Gets - before.Puts); d != 0 {
					t.Fatalf("arena get/put delta %+d, want 0", d)
				}
				if lb := tp.LiveBytes(); lb != 0 {
					t.Fatalf("tape live bytes %d after episode, want 0", lb)
				}
			})
		}
	}
}

// TestSchedVarBuffersSurvive asserts lifetime release never touches
// caller-owned Var/Const buffers or Var gradients: nn.Ctx.Flush reads
// parameter gradients after Backward returns.
func TestSchedVarBuffersSurvive(t *testing.T) {
	tp := NewTape()
	w := tp.Var(testMat(4, 4, 21))
	c := tp.Const(testMat(4, 4, 22))
	loss := tp.SumAll(tp.Mul(tp.Tanh(w), c))
	tp.Keep(loss)
	tp.Backward(loss)
	if w.Grad == nil {
		t.Fatal("Var gradient released by Backward")
	}
	if w.Value == nil || c.Value == nil {
		t.Fatal("leaf Value released by Backward")
	}
	tp.Reset()
}

// TestSchedKeepRetainsValues asserts Keep-pinned intermediates stay
// readable after Backward (the trainer reads loss-component scalars for
// its stats after differentiating).
func TestSchedKeepRetainsValues(t *testing.T) {
	tp := NewTape()
	a := tp.Var(testMat(3, 3, 23))
	kept := tp.Tanh(a)
	dead := tp.Sigmoid(kept)
	loss := tp.SumAll(dead)
	tp.Keep(kept, loss)
	tp.Backward(loss)
	if kept.Value == nil {
		t.Fatal("Keep-pinned value released")
	}
	if dead.Value != nil {
		t.Fatal("unkept intermediate still resident after Backward")
	}
	tp.Reset()
}
