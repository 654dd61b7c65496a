package core

import (
	"fmt"
	"runtime/debug"
	"sync"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// A training window runs on two goroutines that drain one task pool. Only
// the posterior/prior/KL (Eq. 3-4, 8-9) and the GRU (Eq. 13) form the
// chain backpropagation through time must walk in order; the main
// goroutine records it on the model's tape. Everything else is a branch
// with a tape and nn.Ctx of its own:
//
//   - each step's encoder ε(G_t) (Eq. 5-7), which reads only the observed
//     snapshot. The main tape sees its output through a Var leaf;
//   - each step's two decoder losses, structure (Eq. 17) and attributes
//     (Eq. 18), which read S_t = [Z_t ‖ H_{t−1}] and feed nothing later in
//     time. They record from a Var leaf over S_t's value.
//
// Every branch forward and backward is a task. The window's worker
// goroutine and the main goroutine claim tasks oldest first; when main
// needs a result the worker is still computing, it runs other tasks until
// the result is there, and blocks only when none is left.
//
// Hooks on the main tape hand gradients across:
//
//   - right after ε_t's leaf: the sweep reaches it once both consumers,
//     the GRU's gates and then the posterior's hidden layer, have added
//     into the leaf.
//     It seeds the encoder's output with that gradient and submits the
//     encoder's backward.
//   - right after S_t, a join: it awaits the decoder's backward and adds
//     the leaf's gradient into S_t's. Sitting there, it also keeps S_t's
//     value live until the decoder is done with it.
//   - after the step loop, a dispatch per decoder followed by one 1×1 proxy
//     per loss term that holds the term's value; the loss sums the proxies
//     exactly as it summed the terms. The sweep reaches the dispatch right
//     after its proxies got their gradients; it seeds the decoder's terms
//     with them and submits the decoder's backward.

// branch is one sub-graph of a window, recorded on its own tape and
// context by its forward task and swept by its backward task.
type branch struct {
	tape     *tensor.Tape
	c        *nn.Ctx
	fwd, bwd *task
}

// encoderBranch is one step's encoder ε(G_t).
type encoderBranch struct {
	branch
	out *tensor.Node // ε_t
}

// decoderBranch is one step's structure and attribute losses.
type decoderBranch struct {
	branch
	leaf        *tensor.Node // Var over S_t's value
	struc, attr *tensor.Node // loss terms, nil when the step has none
	xHat        *tensor.Node // decoded attributes, set in the final epoch
}

// newBranch returns a branch recording on the model's k-th branch tape
// and the fit's context over it (both created on first use, reused across
// windows and epochs like the main tape). Step i of a window records its
// encoder on tape 2i and its decoder on tape 2i+1.
func (m *Model) newBranch(fs *fitScratch, k int) branch {
	for len(m.branchTapes) <= k {
		m.branchTapes = append(m.branchTapes, newTrainTape())
	}
	for len(fs.branchCtx) <= k {
		fs.branchCtx = append(fs.branchCtx, nn.NewTrainCtx(m.branchTapes[len(fs.branchCtx)], m.adam))
	}
	return branch{tape: m.branchTapes[k], c: fs.branchCtx[k]}
}

// decode records the step's structure loss on the positive edges plus the
// sampled negatives, and its attribute loss with teacher forcing on the
// observed adjacency. In the final epoch it keeps the decoded attributes
// for the residual moments, which main records in step order.
func (m *Model) decode(b *decoderBranch, st *windowStep, residuals bool) {
	c, tape, snap := b.c, b.tape, st.snap
	if len(st.src) > 0 {
		p := m.mixBernoulliProb(c, b.leaf, st.src, st.dst, snap.N)
		b.struc = tape.BCEProb(p, st.targets)
	}
	if m.Cfg.F > 0 {
		dec := m.gat.Apply(c, b.leaf, st.esrc, st.edst, snap.N)
		xHat := m.attrMLP.Apply(c, dec)
		if m.Cfg.UseSCE {
			b.attr = tape.SCELoss(xHat, snap.X, sceAlpha)
		} else {
			b.attr = tape.MSELoss(xHat, snap.X)
		}
		if residuals {
			b.xHat = xHat
		}
	}
	// The main tape's proxies read the terms' values.
	tape.Keep(b.struc, b.attr)
}

// windowStep is one timestep of a window: its share of the window's
// randomness, drawn before any task runs, and its branches.
type windowStep struct {
	t             int
	snap, encSnap *dyngraph.Snapshot
	// noise is the N×d_z reparameterisation noise; nil once the main tape
	// owns it.
	noise                *tensor.Matrix
	esrc, edst, src, dst []int
	targets              *tensor.Matrix
	enc                  *encoderBranch
	dec                  *decoderBranch // nil when the step has no decoder loss
}

// task is one branch forward or backward. It is claimed exactly once, by
// the pool's worker or by the goroutine that awaits it, and never submits
// or awaits another task.
type task struct {
	run      func()
	claimed  bool // guarded by the pool's mu
	done     bool // guarded by the pool's mu
	panicked *taskPanic
}

// exec runs the task, catching a panic with the stack it happened on.
func (t *task) exec() {
	defer func() {
		if r := recover(); r != nil {
			t.panicked = &taskPanic{value: r, stack: debug.Stack()}
		}
	}()
	t.run()
}

// taskPanic carries a task's panic to the goroutine that awaits it: the
// value, and the stack of the goroutine it was raised on, which a bare
// re-raise would lose (the pattern of x/sync/errgroup's PanicError).
// Re-raised, it prints both.
type taskPanic struct {
	value any
	stack []byte
}

func (p *taskPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }

// taskPool runs one window's tasks on the goroutine that submits them and
// on one worker goroutine.
type taskPool struct {
	mu      sync.Mutex
	wake    *sync.Cond // a task was submitted or finished, or the pool stopped
	tasks   []*task    // every submitted task, oldest first
	next    int        // tasks[:next] are all claimed
	stopped bool
	exited  chan struct{}
}

func startTaskPool() *taskPool {
	p := &taskPool{exited: make(chan struct{})}
	p.wake = sync.NewCond(&p.mu)
	go p.work()
	return p
}

// submit queues run as a task and returns it.
func (p *taskPool) submit(run func()) *task {
	t := &task{run: run}
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	p.mu.Unlock()
	p.wake.Broadcast()
	return t
}

// claimOldest claims and returns the oldest unclaimed task, or nil. The
// caller holds mu.
func (p *taskPool) claimOldest() *task {
	for ; p.next < len(p.tasks); p.next++ {
		if t := p.tasks[p.next]; !t.claimed {
			t.claimed = true
			return t
		}
	}
	return nil
}

// runClaimed runs a task the caller claimed and marks it done. The caller
// holds mu; it is released while the task runs.
func (p *taskPool) runClaimed(t *task) {
	p.mu.Unlock()
	t.exec()
	p.mu.Lock()
	t.done = true
}

func (p *taskPool) work() {
	defer close(p.exited)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if t := p.claimOldest(); t != nil {
			p.runClaimed(t)
			p.wake.Broadcast() // main may be waiting for it
		} else if p.stopped {
			return
		} else {
			p.wake.Wait()
		}
	}
}

// await returns once t is done, running t itself if nobody has claimed it
// and other unclaimed tasks, oldest first, while the worker runs it. It
// re-raises t's panic on the calling goroutine.
func (p *taskPool) await(t *task) {
	p.mu.Lock()
	for !t.done {
		if !t.claimed {
			t.claimed = true
			p.runClaimed(t)
		} else if o := p.claimOldest(); o != nil {
			p.runClaimed(o)
		} else {
			p.wake.Wait()
		}
	}
	p.mu.Unlock()
	if t.panicked != nil {
		panic(t.panicked)
	}
}

// stop claims every unclaimed task without running it, waits for the task
// in flight on the worker, and lets the worker exit.
func (p *taskPool) stop() {
	p.mu.Lock()
	for p.claimOldest() != nil {
	}
	p.stopped = true
	p.mu.Unlock()
	p.wake.Broadcast()
	<-p.exited
}
