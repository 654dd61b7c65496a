package tensor

import "fmt"

// Node is a value in the computation graph. Value is populated from record
// time until the backward sweep passes the node or ReleaseSince returns it
// (or until Reset, for Var, Const and Keep-pinned nodes); Grad is lazily
// allocated for nodes that
// require gradients. The backward closure, when invoked, propagates this
// node's Grad into its parents.
type Node struct {
	Value    *Matrix
	Grad     *Matrix
	needGrad bool
	pooled   bool // Value is arena-owned and reclaimed by the tape
	keep     bool // Value must stay resident until Reset (read after Backward)
	hook     bool // backward runs whenever the sweep reaches the node (Hook)
	tape     *Tape
	backward func()
}

// grad returns the gradient buffer, allocating it from the arena on first
// use; the tape reclaims it (mid-Backward, or at Reset).
func (n *Node) grad() *Matrix {
	if n.Grad == nil {
		n.Grad = Get(n.Value.Rows, n.Value.Cols)
		if n.tape != nil {
			n.tape.trackAlloc(int64(len(n.Grad.Data)) * 8)
		}
	}
	return n.Grad
}

// AccumulateGrad adds g into n's gradient, allocating a zeroed buffer on
// first use (tape-owned, reclaimed like any other gradient). A nil g adds
// nothing. It seeds BackwardSeeded and carries a gradient from one tape to
// another; adding into a freshly zeroed buffer reproduces g bit for bit
// unless g holds −0, which no gradient accumulated from zero does.
func (n *Node) AccumulateGrad(g *Matrix) {
	if g != nil {
		n.grad().AddInPlace(g)
	}
}

// Tape records operations for reverse-mode differentiation. Operations are
// replayed in reverse order by Backward. A Tape is not safe for concurrent
// use; build one per training step (or reuse after Reset).
//
// Memory model: every operation output and every gradient buffer is
// allocated from the pooled arena and owned by the tape. Backward returns
// each op's Value and Grad to the arena as soon as the sweep has passed it
// (see sched.go), and Reset returns whatever is left, so a reused tape
// (TBPTT windows, repeated epochs) runs with near-zero steady-state
// allocation and a window's peak is a fraction of its recorded size.
// Matrices wrapped by Var and Const are caller-owned and never reclaimed;
// values read after Backward must be pinned with Keep, and values that
// must survive a Reset (the detached hidden state, loss scalars) must be
// copied out first.
type Tape struct {
	nodes []*Node
	spare []*Node // recycled Node structs, refilled by Reset
	// reference makes Backward release nothing before Reset: the plain
	// record-order executor the differential tests compare against. Set
	// only by NewReferenceTape.
	reference bool

	live int64 // bytes of tape-owned buffers currently checked out
	peak int64 // high-water mark of live (survives Reset)

	// terms holds every AffineSum's terms, which its backward reads by
	// index; blocks are the two row-block view headers those ops hand to
	// the GEMM kernels (rowBlock). Both are reused from one recording to
	// the next.
	terms  []Term
	blocks [2]Matrix
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewReferenceTape returns an empty tape whose Backward holds every buffer
// until Reset. It computes the same bits as NewTape's and exists only as
// the reference that tests compare the releasing executor with; training
// has no use for it.
func NewReferenceTape() *Tape { return &Tape{reference: true} }

// Reset discards all recorded operations so the tape can be reused,
// returning every remaining operation output and gradient buffer to the
// pooled arena (buffers Backward already released are skipped). Node
// values recorded via Var/Const are left untouched. Nodes (and their
// Value/Grad matrices) must not be used after Reset. The peak live-byte
// mark survives.
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
	clear(t.terms)
	t.terms = t.terms[:0]
	t.blocks = [2]Matrix{}
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

// Const wraps a matrix as a node that does not require gradients. The
// matrix is caller-owned: Reset does not reclaim it.
func (t *Tape) Const(m *Matrix) *Node {
	return t.record(m, false, nil)
}

// Owned wraps an arena-allocated matrix (from Get) as a constant node and
// transfers ownership to the tape: Backward or Reset returns the buffer to
// the arena. Used for per-step constants (input features,
// reparameterization noise) built fresh inside a training window.
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

// Hook records fn to run when Backward's sweep reaches this point of the
// recording, whether or not any gradient did. Everything recorded after
// the hook has run its backward by then, and nothing recorded before it
// has. The hook is a node with no value, so nothing can consume it.
func (t *Tape) Hook(fn func()) {
	t.record(nil, false, fn).hook = true
}

// Backward seeds the gradient of loss (which must be 1×1) with 1 and
// propagates gradients through every recorded operation in reverse order.
// Gradients accumulate into Node.Grad.
//
// The sweep releases each operation's Value and Grad back to the arena as
// soon as it passes the node: a node's buffers are dead once its own
// closure has run, because every consumer sits later on the tape and has
// already executed. Values pinned with Keep and all Var/Const buffers are
// exempt. Backward therefore consumes the recording: call it at most once
// per recording, then Reset.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward requires scalar loss, got %s", loss.Value.shape()))
	}
	loss.grad().Data[0] = 1
	t.BackwardSeeded()
}

// BackwardSeeded is Backward without a loss: the sweep starts from the
// gradients already placed on the recording with AccumulateGrad (a
// sub-graph whose outputs feed another tape's loss). It releases buffers
// and consumes the recording exactly as Backward does.
func (t *Tape) BackwardSeeded() {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.backward != nil && (n.hook || n.needGrad && n.Grad != nil) {
			n.backward()
		}
		if n.pooled && !t.reference {
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

// anyGrad reports whether any of the inputs require gradients.
func anyGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.needGrad {
			return true
		}
	}
	return false
}
