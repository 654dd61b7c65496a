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

// TestSchedReleaseShrinksPeak pins the point of the lifetime pass: on a
// deep chain the scheduled executor's peak live bytes must come in well
// under the plain executor's, and the tape must be empty (zero live bytes)
// once Backward has consumed it.
func TestSchedReleaseShrinksPeak(t *testing.T) {
	run := func(s Sched) (peak int64) {
		tp := NewTape()
		tp.SetSched(s)
		loss, _ := deepChain(tp, 64, 24, 7)
		tp.Keep(loss)
		tp.Backward(loss)
		if s.Lifetime {
			// Everything but the kept loss scalar and the leaf's (Var)
			// gradient should be gone already.
			if lb := tp.LiveBytes(); lb > 64*64*8+4096 {
				t.Fatalf("scheduled run: %d live bytes after Backward, want ~leaf grad only", lb)
			}
		}
		tp.Reset()
		if lb := tp.LiveBytes(); lb != 0 {
			t.Fatalf("%d live bytes after Reset, want 0", lb)
		}
		return tp.PeakLiveBytes()
	}
	plain := run(Sched{})
	sched := run(SchedAll)
	if sched >= plain*6/10 {
		t.Fatalf("scheduled peak %d >= 60%% of plain peak %d", sched, plain)
	}
}

// TestSchedCheckpointShrinksPeak asserts rematerialization lowers the
// forward-pass footprint: with segments, values recorded inside a closed
// segment are dropped before Backward even starts.
func TestSchedCheckpointShrinksPeak(t *testing.T) {
	record := func(ckpt bool) (liveAfterForward int64, tp *Tape, loss *Node) {
		tp = NewTape()
		tp.SetSched(SchedAll)
		leaf := tp.Var(testMat(64, 64, 9))
		cur := leaf
		for s := 0; s < 6; s++ {
			tp.Checkpoint(func() {
				for k := 0; k < 4; k++ {
					cur = tp.Tanh(tp.MatMul(cur, tp.Scale(cur, 0.01)))
				}
				if !ckpt {
					tp.Keep(cur)
				}
				tp.Keep(cur) // boundary value feeds the next segment
			})
		}
		loss = tp.SumAll(cur)
		tp.Keep(loss)
		return tp.LiveBytes(), tp, loss
	}
	liveCk, tpCk, lossCk := record(true)
	tp2 := NewTape() // plain: no segments at all
	tp2.SetSched(Sched{Lifetime: true})
	lossFlat, _ := deepChain(tp2, 64, 24, 9)
	tp2.Keep(lossFlat)
	liveFlat := tp2.LiveBytes()
	if liveCk >= liveFlat/2 {
		t.Fatalf("checkpointed forward holds %d live bytes, flat holds %d; want < half", liveCk, liveFlat)
	}
	// Both must still complete Backward and drain cleanly.
	tpCk.Backward(lossCk)
	tpCk.Reset()
	tp2.Backward(lossFlat)
	tp2.Reset()
	if lb := tpCk.LiveBytes(); lb != 0 {
		t.Fatalf("checkpointed tape: %d live bytes after Reset", lb)
	}
}

// TestSchedResetBalance covers the Reset interaction for completed,
// cancelled (recorded but never differentiated — the FitContext
// cancellation path), and checkpoint-rematerialized epochs: in every case
// the arena's get/put delta for the episode must be exactly zero.
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
		{"checkpointed-completed", func(tp *Tape) {
			leaf := tp.Var(testMat(16, 16, 14))
			cur := leaf
			for s := 0; s < 3; s++ {
				tp.Checkpoint(func() {
					cur = tp.Tanh(tp.MatMul(cur, cur))
					tp.Keep(cur)
				})
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
				tp.Checkpoint(func() {
					cur = tp.Tanh(tp.MatMul(cur, cur))
					tp.Keep(cur)
				})
			}
			tp.Reset() // dropped segment values must not be double-freed
		}},
	}
	for _, sched := range []struct {
		name string
		s    Sched
	}{{"plain", Sched{}}, {"sched", SchedAll}} {
		for _, ep := range episodes {
			t.Run(sched.name+"/"+ep.name, func(t *testing.T) {
				tp := NewTape()
				tp.SetSched(sched.s)
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

// TestSchedVarBuffersSurvive asserts the lifetime pass never touches
// caller-owned Var/Const buffers or Var gradients: nn.Ctx.Flush reads
// parameter gradients after Backward returns.
func TestSchedVarBuffersSurvive(t *testing.T) {
	tp := NewTape()
	tp.SetSched(SchedAll)
	w := tp.Var(testMat(4, 4, 21))
	c := tp.Const(testMat(4, 4, 22))
	loss := tp.SumAll(tp.Mul(tp.Tanh(w), c))
	tp.Keep(loss)
	tp.Backward(loss)
	if w.Grad == nil {
		t.Fatal("Var gradient released by scheduled Backward")
	}
	if w.Value == nil || c.Value == nil {
		t.Fatal("leaf Value released by scheduled Backward")
	}
	tp.Reset()
}

// TestSchedKeepRetainsValues asserts Keep-pinned intermediates stay
// readable after a scheduled Backward (the trainer reads loss-component
// scalars for its stats after differentiating).
func TestSchedKeepRetainsValues(t *testing.T) {
	tp := NewTape()
	tp.SetSched(SchedAll)
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
		t.Fatal("unkept intermediate still resident after scheduled Backward")
	}
	tp.Reset()
}

// TestSetSchedRules pins the SetSched contract: reconfiguring a non-empty
// tape panics, re-asserting the same config does not, and Reset unlocks
// reconfiguration.
func TestSetSchedRules(t *testing.T) {
	tp := NewTape()
	tp.SetSched(SchedAll)
	tp.Var(testMat(2, 2, 31))
	tp.SetSched(SchedAll) // same config: fine
	didPanic := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	if !didPanic(func() { tp.SetSched(Sched{}) }) {
		t.Fatal("SetSched reconfigure on non-empty tape did not panic")
	}
	tp.Reset()
	tp.SetSched(Sched{}) // empty again: fine
	if tp.Sched() != (Sched{}) {
		t.Fatalf("Sched() = %+v after reconfigure", tp.Sched())
	}
}

// TestCheckpointNesting pins the no-nesting contract.
func TestCheckpointNesting(t *testing.T) {
	tp := NewTape()
	tp.SetSched(SchedAll)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Checkpoint did not panic")
		}
		tp.segDepth = 0
		tp.Reset()
	}()
	tp.Checkpoint(func() { tp.Checkpoint(func() {}) })
}
