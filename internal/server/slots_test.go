package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newOneSlotServer serves the shared model with a single CPU slot, so a
// test that occupies s.slots directly holds all of them.
func newOneSlotServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	m, ref := trainedModel(t)
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestRunSkipsRequestCancelledWhileWaiting: a request whose client goes
// away before it holds a CPU slot never runs and gets nothing written —
// both while the slot is taken and when the slot and the cancellation
// are ready in the same instant.
func TestRunSkipsRequestCancelledWhileWaiting(t *testing.T) {
	s, _ := newOneSlotServer(t)
	var ran atomic.Bool
	f := func() { ran.Store(true) }

	s.slots <- struct{}{} // occupy the single CPU slot
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan bool, 1)
	go func() {
		done <- s.run(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil).WithContext(ctx), false, f)
	}()
	// Usually reached after run is parked on the slot; cancelling before it
	// gets there must end the same way.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if <-done {
		t.Fatal("run reported success for a cancelled request")
	}
	<-s.slots
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled waiter got a body: %s", rec.Body)
	}

	// A free slot and an already-cancelled context: whichever the select
	// picks, the request must not run.
	for i := 0; i < 32; i++ {
		rec := httptest.NewRecorder()
		if s.run(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil).WithContext(ctx), false, f) {
			t.Fatal("run reported success for a cancelled request")
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("cancelled request got a body: %s", rec.Body)
		}
	}
	if ran.Load() {
		t.Fatal("a request cancelled before it held a slot ran")
	}
	if len(s.slots) != 0 {
		t.Fatalf("%d CPU slots leaked", len(s.slots))
	}
}

// TestRunContainsPanic: a panic inside run answers 500 on a unary route,
// writes nothing into a stream, and frees its slot — the next request on
// the one-slot server gets 200.
func TestRunContainsPanic(t *testing.T) {
	s, ts := newOneSlotServer(t)
	boom := func() { panic("boom") }

	rec := httptest.NewRecorder()
	if s.run(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil), false, boom) {
		t.Fatal("run reported success for a panicking request")
	}
	var e ErrorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "boom") {
		t.Fatalf("unary panic: status %d body %s, want 500 naming the panic", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	if s.run(rec, httptest.NewRequest(http.MethodPost, "/v1/generate/stream", nil), true, boom) {
		t.Fatal("run reported success for a panicking stream")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("stream panic wrote a body: %s", rec.Body)
	}

	seed := int64(1)
	if resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panics: status %d: %s", resp.StatusCode, data)
	}
}

// TestCloseAnswersSlotWaiters503: a request admitted and waiting for a
// CPU slot when Close is called gets 503, and Close returns once the
// slot it waited on is free.
func TestCloseAnswersSlotWaiters503(t *testing.T) {
	s, ts := newOneSlotServer(t)
	s.slots <- struct{}{} // occupy the single CPU slot

	type result struct {
		code int
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"model":"email","t":2,"seed":1}`))
		if err != nil {
			got <- result{err: err}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{resp.StatusCode, data, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.admitCh) == 0 { // admitted: past the drain check, bound for run
		if time.Now().After(deadline) {
			t.Fatal("the request was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	var r result
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		<-s.slots // unblock the waiter so cleanup can finish
		t.Fatal("the slot waiter was not answered when Close began")
	}
	if r.err != nil || r.code != http.StatusServiceUnavailable {
		t.Fatalf("slot waiter at Close: status %d (%s, err %v), want 503", r.code, r.body, r.err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a CPU slot was still held")
	case <-time.After(20 * time.Millisecond):
	}
	<-s.slots
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the slot freed")
	}
}

// TestNothingRunsAfterClose: Close waits out work that holds a CPU slot,
// and once it has returned run answers 503 without calling f.
func TestNothingRunsAfterClose(t *testing.T) {
	s, _ := newOneSlotServer(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	go s.run(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/generate", nil), false, func() {
		close(started)
		<-release
		finished.Store(true)
	})
	<-started

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the running request finished")
	}

	var ran atomic.Bool
	rec := httptest.NewRecorder()
	if s.run(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil), false, func() { ran.Store(true) }) {
		t.Fatal("run reported success after Close")
	}
	if ran.Load() {
		t.Fatal("work ran after Close returned")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("run after Close: status %d, want 503", rec.Code)
	}
	s.Close() // idempotent
}
