package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskPoolRunsEachTaskOnce submits tasks while the worker claims them
// and awaits them in an order that makes the awaiting goroutine run some
// itself and help with others: every task runs exactly once.
func TestTaskPoolRunsEachTaskOnce(t *testing.T) {
	const n = 64
	var runs [n]atomic.Int32
	p := startTaskPool()
	defer p.stop()
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = p.submit(func() {
			runs[i].Add(1)
			for range i % 3 { // uneven tasks, so claims interleave
				runtime.Gosched()
			}
		})
	}
	for i := n - 1; i >= 0; i -= 2 { // newest first, so older ones are left to help with
		p.await(tasks[i])
	}
	for i := 0; i < n; i += 2 {
		p.await(tasks[i])
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
}

// TestTaskPoolAwaitReraisesPanic asserts a task's panic reaches the
// awaiting goroutine with its value and the stack it was raised on, and
// that the other tasks still run.
func TestTaskPoolAwaitReraisesPanic(t *testing.T) {
	p := startTaskPool()
	defer p.stop()
	var ran atomic.Bool
	bad := p.submit(func() { panicInTask("boom") })
	good := p.submit(func() { ran.Store(true) })
	r := func() (r any) {
		defer func() { r = recover() }()
		p.await(bad)
		return nil
	}()
	tp, ok := r.(*taskPanic)
	if !ok {
		t.Fatalf("await panicked with %T %v, want a *taskPanic", r, r)
	}
	if tp.value != "boom" {
		t.Fatalf("panic value %v, want boom", tp.value)
	}
	if !strings.Contains(string(tp.stack), "panicInTask") {
		t.Fatalf("panic stack does not name the panicking function:\n%s", tp.stack)
	}
	p.await(good)
	if !ran.Load() {
		t.Fatal("a task submitted after a panicking one never ran")
	}
}

func panicInTask(v string) { panic(v) }

// TestTaskPoolStopSkipsUnclaimed holds the worker inside one task, queues
// two more and stops the pool: stop must not return before the task in
// flight finishes, and the queued tasks must never run.
func TestTaskPoolStopSkipsUnclaimed(t *testing.T) {
	p := startTaskPool()
	started, release := make(chan struct{}), make(chan struct{})
	var finished, queuedRan atomic.Bool
	p.submit(func() {
		close(started)
		<-release
		finished.Store(true)
	})
	<-started // the worker claimed it
	p.submit(func() { queuedRan.Store(true) })
	p.submit(func() { queuedRan.Store(true) })

	stopped := make(chan struct{})
	go func() {
		p.stop()
		close(stopped)
	}()
	for claimed := false; !claimed; { // until stop has claimed the queue
		time.Sleep(time.Millisecond)
		p.mu.Lock()
		claimed = p.stopped
		p.mu.Unlock()
	}
	select {
	case <-stopped:
		t.Fatal("stop returned while a task was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !finished.Load() {
		t.Fatal("stop returned before the task in flight finished")
	}
	if queuedRan.Load() {
		t.Fatal("stop ran a task nobody had claimed")
	}
}
