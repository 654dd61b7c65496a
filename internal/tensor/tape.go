package tensor

import "fmt"

// Node is a value in the computation graph. Value is always populated
// while the node is live; Grad is lazily allocated for nodes that require
// gradients. The backward closure, when invoked, propagates this node's
// Grad into its parents.
//
// Under the scheduled executor (Tape.SetSched) a node's buffers have
// shorter lifetimes than the tape itself: Checkpoint segments may drop
// Value after recording and rematerialize it from fwd during Backward, and
// the lifetime pass releases Value and Grad as soon as the backward sweep
// passes the node. Nodes marked with Tape.Keep opt out of both.
type Node struct {
	Value    *Matrix
	Grad     *Matrix
	needGrad bool
	pooled   bool // Value is arena-owned and reclaimed by the tape
	keep     bool // Value must stay resident until Reset (read after Backward)
	dropped  bool // Value dropped by a Checkpoint segment, pending rematerialization
	tape     *Tape
	backward func()
	fwd      func() *Matrix // recompute closure; rebuilds Value from parent Values
}

// grad returns the gradient buffer, allocating it from the arena on first
// use; the tape reclaims it (Reset, or mid-Backward under scheduling).
func (n *Node) grad() *Matrix {
	if n.Grad == nil {
		n.Grad = Get(n.Value.Rows, n.Value.Cols)
		if n.tape != nil {
			n.tape.trackAlloc(int64(len(n.Grad.Data)) * 8)
		}
	}
	return n.Grad
}

// Tape records operations for reverse-mode differentiation. Operations are
// replayed in reverse order by Backward. A Tape is not safe for concurrent
// use; build one per training step (or reuse after Reset).
//
// Memory model: every operation output and every gradient buffer is
// allocated from the pooled arena and owned by the tape. By default all of
// them stay live until Reset, so a reused tape (TBPTT windows, repeated
// epochs) runs with near-zero steady-state allocation. SetSched turns on
// the scheduled executor, which releases dead buffers mid-Backward and
// honours Checkpoint rematerialization segments — all while computing
// bit-identical results (pinned by the package's differential tests and
// FuzzTapeSchedule). Matrices wrapped by Var and Const are
// caller-owned and never reclaimed; values that must survive a Reset (the
// detached hidden state, loss scalars) must be copied out first, and values
// read after a scheduled Backward must be pinned with Keep.
type Tape struct {
	nodes    []*Node
	spare    []*Node // recycled Node structs, refilled by Reset
	sched    Sched
	segs     []seg // closed Checkpoint segments, in recording order
	segDepth int
	segStart int

	live int64 // bytes of tape-owned buffers currently checked out
	peak int64 // high-water mark of live (survives Reset)
}

// seg is a closed Checkpoint segment: nodes[start:end] recorded inside it.
type seg struct{ start, end int }

// NewTape returns an empty tape with scheduling off (record-order
// execution, buffers held until Reset).
func NewTape() *Tape { return &Tape{} }

// Reset discards all recorded operations so the tape can be reused,
// returning every remaining operation output and gradient buffer to the
// pooled arena (buffers already released by the scheduled executor are
// skipped). Node values recorded via Var/Const are left untouched. Nodes
// (and their Value/Grad matrices) must not be used after Reset. The
// scheduling configuration and the peak live-byte mark survive.
func (t *Tape) Reset() {
	for _, n := range t.nodes {
		if n.pooled && n.Value != nil {
			t.putBuf(&n.Value)
		}
		if n.Grad != nil {
			t.putBuf(&n.Grad)
		}
		*n = Node{}
		t.spare = append(t.spare, n)
	}
	t.nodes = t.nodes[:0]
	t.segs = t.segs[:0]
	t.segDepth = 0
}

// Len returns the number of recorded nodes (diagnostics).
func (t *Tape) Len() int { return len(t.nodes) }

// record appends a node to the tape and returns it, reusing a recycled
// Node struct when one is available.
func (t *Tape) record(v *Matrix, needGrad bool, backward func()) *Node {
	var n *Node
	if k := len(t.spare); k > 0 {
		n = t.spare[k-1]
		t.spare[k-1] = nil
		t.spare = t.spare[:k-1]
	} else {
		n = &Node{}
	}
	*n = Node{Value: v, needGrad: needGrad, backward: backward, tape: t}
	t.nodes = append(t.nodes, n)
	return n
}

// op records an operation output whose Value buffer is arena-owned (it was
// allocated with Get) and therefore reclaimed by the tape.
func (t *Tape) op(v *Matrix, needGrad bool) *Node {
	n := t.record(v, needGrad, nil)
	n.pooled = true
	t.trackAlloc(int64(len(v.Data)) * 8)
	return n
}

// newOp runs fwd once to materialise the output, records it as a pooled
// node, and retains fwd so Checkpoint segments can rematerialize the value
// during Backward.
func (t *Tape) newOp(needGrad bool, fwd func() *Matrix) *Node {
	n := t.op(fwd(), needGrad)
	n.fwd = fwd
	return n
}

// Const wraps a matrix as a node that does not require gradients. The
// matrix is caller-owned: Reset does not reclaim it.
func (t *Tape) Const(m *Matrix) *Node {
	return t.record(m, false, nil)
}

// Owned wraps an arena-allocated matrix (from Get) as a constant node and
// transfers ownership to the tape: Reset returns the buffer to the arena.
// Used for per-step constants (input features, reparameterization noise)
// built fresh inside a training window. Owned values have no recompute
// closure, so Checkpoint segments retain rather than drop them.
func (t *Tape) Owned(m *Matrix) *Node {
	return t.op(m, false)
}

// Var wraps a matrix as a differentiable leaf (parameter or input requiring
// gradients). The matrix is used directly, not copied, so parameter updates
// outside the tape are observed by subsequent forward passes. Var values
// and gradients are never released mid-Backward: gradient consumers
// (nn.Ctx.Flush, tests) read them after Backward returns.
func (t *Tape) Var(m *Matrix) *Node {
	return t.record(m, true, nil)
}

// Backward seeds the gradient of loss (which must be 1×1) with 1 and
// propagates gradients through every recorded operation in reverse order.
// Gradients accumulate into Node.Grad.
//
// With scheduling enabled the sweep additionally (a) rematerializes
// Checkpoint segments just before their nodes are needed, and (b) releases
// each operation's Value and Grad back to the arena as soon as the sweep
// passes it — a node's buffers are dead once its own closure has run,
// because every consumer sits later on the tape and has already executed.
// Values pinned with Keep and all Var/Const buffers are exempt. A scheduled
// Backward therefore consumes the recording: call it at most once per
// recording, then Reset.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward requires scalar loss, got %s", loss.Value.shape()))
	}
	if t.segDepth != 0 {
		panic("tensor: Backward inside an open Checkpoint segment")
	}
	loss.grad().Data[0] = 1
	si := len(t.segs) - 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		for si >= 0 && t.segs[si].end-1 == i {
			t.remat(t.segs[si])
			si--
		}
		n := t.nodes[i]
		if n.backward != nil && n.needGrad && n.Grad != nil {
			n.backward()
		}
		if t.sched.Lifetime {
			if n.pooled {
				if n.Grad != nil {
					t.putBuf(&n.Grad)
				}
				if !n.keep {
					t.putBuf(&n.Value)
					n.pooled = false
				}
			}
		}
	}
}

// anyGrad reports whether any of the inputs require gradients.
func anyGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.needGrad {
			return true
		}
	}
	return false
}
