package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrBusy is returned by Pool.Do when the request queue is full. Handlers
// translate it into 503 Service Unavailable so load sheds at the edge
// instead of piling up goroutines behind the CPU-bound generation work.
var ErrBusy = errors.New("server: request queue full")

// ErrClosed is returned by Pool.Do after Close.
var ErrClosed = errors.New("server: pool closed")

// Task lifecycle states. A queued task is claimed exactly once: by the
// worker that will run it (pending→running) or by the submitter that gave
// up on it (pending→abandoned). The claim race is what lets Do promise
// that when it returns a context error, f has not run and never will —
// and that in every other case f has fully finished. Streaming handlers
// rely on the second half: f writes to the http.ResponseWriter, which must
// not be touched after the handler returns.
const (
	taskPending int32 = iota
	taskRunning
	taskAbandoned
)

type task struct {
	ctx   context.Context
	f     func()
	done  chan struct{}
	err   error // set by the worker before close(done) when f panicked or was skipped
	state atomic.Int32
}

// Pool is a bounded worker pool for CPU-bound generation work. A fixed
// number of workers (default GOMAXPROCS) drain a bounded queue; Do rejects
// immediately with ErrBusy when the queue is full. Tasks whose context is
// cancelled before a worker claims them are skipped.
type Pool struct {
	tasks chan *task

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with the given worker and queue sizes; zero or
// negative values select the defaults (GOMAXPROCS workers; 4× workers
// queue slots, floored at 16 so small machines still absorb a burst).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * workers
		if queue < 16 {
			queue = 16
		}
	}
	p := &Pool{tasks: make(chan *task, queue)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		if !t.state.CompareAndSwap(taskPending, taskRunning) {
			// Abandoned by its submitter; nobody is waiting on done.
			continue
		}
		if err := t.ctx.Err(); err != nil {
			// Claimed, but the context expired while queued: skip the work
			// and report the cancellation to the waiting submitter.
			t.err = err
		} else {
			t.err = runTask(t.f)
		}
		close(t.done)
	}
}

// runTask contains a panicking task so one bad request cannot take the
// whole process down (the net/http per-connection recover does not cover
// pool goroutines).
func runTask(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: task panic: %v", r)
		}
	}()
	f()
	return nil
}

// Do submits f without waiting for a queue slot (ErrBusy when full) and
// blocks until the task resolves. On return the caller has one of two
// guarantees: a context error means f never ran and never will; any other
// result means f ran to completion before Do returned (a panic inside f
// is contained and returned as an error), so state shared with f —
// including an http.ResponseWriter f streamed to — is safe to use again.
func (p *Pool) Do(ctx context.Context, f func()) error {
	t, err := p.submit(ctx, f)
	if err != nil {
		return err
	}
	return p.await(ctx, t)
}

func (p *Pool) submit(ctx context.Context, f func()) (*task, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	t := &task{ctx: ctx, f: f, done: make(chan struct{})}
	select {
	case p.tasks <- t:
		return t, nil
	default:
		return nil, ErrBusy
	}
}

func (p *Pool) await(ctx context.Context, t *task) error {
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			return ctx.Err() // still queued: the task will never run
		}
		// A worker claimed the task first. Wait for it to finish so the
		// completion guarantee above holds; f observes the same ctx and is
		// expected to return promptly after cancellation.
		<-t.done
		return t.err
	}
}

// Close stops accepting work and waits for queued and in-flight tasks to
// drain.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}
