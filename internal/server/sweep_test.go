package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vrdag/internal/durable"
)

// gateFS parks every Sync on files under one session's directory, once
// armed, until the gate opens: an ingest caught inside its WAL fsync, with
// the session's write lock held, for as long as the test wants.
type gateFS struct {
	durable.FS
	dir     string // Syncs on paths containing this wait
	armed   atomic.Bool
	entered chan struct{} // closed by the first parked Sync
	once    sync.Once
	gate    chan struct{} // closed to let parked Syncs through
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(name, g.dir) {
		return f, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	durable.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.once.Do(func() { close(f.fs.entered) })
		<-f.fs.gate
	}
	return f.File.Sync()
}

// TestRequestsDoNotWaitForAnotherSessionsFsync: while one durable
// session's ingest sits inside its WAL fsync, requests about a different
// session — creating it (the one request-path sweep), appending to it,
// forecasting from it — finish. With a sweep on every request each of them
// queued behind the parked session's lock.
func TestRequestsDoNotWaitForAnotherSessionsFsync(t *testing.T) {
	fsys := &gateFS{
		FS:      durable.OS,
		dir:     filepath.Join("sessions", "parked") + string(filepath.Separator),
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
	s, ts := newDurableServer(t, t.TempDir(), func(c *Config) {
		c.FS = fsys
		c.Workers = 4 // the parked ingest keeps one CPU slot
	})
	defer func() { ts.Close(); s.Close() }()
	var openGate sync.Once
	defer openGate.Do(func() { close(fsys.gate) })

	mustIngest(t, ts.URL, "session=parked", edgeStreamCSVRange(t, 0, 1))
	fsys.armed.Store(true)
	parked := make(chan error, 1)
	second := edgeStreamCSVRange(t, 1, 2)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest?session=parked", "text/csv", strings.NewReader(second))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		parked <- err
	}()
	select {
	case <-fsys.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked ingest never reached its fsync")
	}

	// A request that waits for the parked session runs into the client
	// timeout instead of hanging the test.
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(what, url, ctype, body string) {
		t.Helper()
		resp, err := client.Post(url, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s while another session is inside its fsync: %v", what, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", what, resp.StatusCode)
		}
	}
	post("creating ingest", ts.URL+"/v1/ingest?session=other", "text/csv", edgeStreamCSVRange(t, 0, 1))
	post("appending ingest", ts.URL+"/v1/ingest?session=other", "text/csv", edgeStreamCSVRange(t, 1, 2))
	seed := int64(3)
	freq, _ := json.Marshal(ForecastRequest{Session: "other", T: 2, Seed: &seed})
	post("forecast", ts.URL+"/v1/forecast", "application/json", string(freq))

	select {
	case err := <-parked:
		t.Fatalf("the parked ingest returned while its fsync was held: %v", err)
	default:
	}
	openGate.Do(func() { close(fsys.gate) })
	if err := <-parked; err != nil {
		t.Fatalf("parked ingest after the gate opened: %v", err)
	}
}

// TestSweepSkipsBusySession: a sweep passes over a session whose lock an
// ingest holds, however long it has been idle, with a DataDir and without:
// it neither drops nor spills that session, and does not wait for the lock.
func TestSweepSkipsBusySession(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			m, ref := trainedModel(t)
			cfg := Config{SweepInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
			if durable {
				cfg.DataDir = t.TempDir()
			}
			s := New(cfg)
			if err := s.Register("email", m, ref); err != nil {
				t.Fatalf("register: %v", err)
			}
			ts := httptest.NewServer(s)
			defer func() { ts.Close(); s.Close() }()

			mustIngest(t, ts.URL, "session=busy", edgeStreamCSVRange(t, 0, 1))
			s.sessMu.Lock()
			fs := s.sessions["busy"]
			s.sessMu.Unlock()

			fs.mu.Lock()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.sweepSessions(time.Now().Add(s.cfg.SessionTTL + time.Hour))
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("the sweep waited for the busy session's lock")
			}
			fs.mu.Unlock()
			<-done

			s.sessMu.Lock()
			cur := s.sessions["busy"]
			s.sessMu.Unlock()
			if cur != fs {
				t.Fatal("the sweep dropped a session an ingest held")
			}
			fs.mu.RLock()
			closed, spilled := fs.closed, fs.spilled
			fs.mu.RUnlock()
			if closed || spilled {
				t.Fatalf("busy session after the sweep: closed=%v spilled=%v, want resident", closed, spilled)
			}
		})
	}
}

// TestLookupTakesNoOtherSessionsLock: with every other session
// write-locked, resolving one more — by lookupSession and by
// getOrCreateSession — returns. In durable mode the per-request sweep read
// each session's flags under its lock.
func TestLookupTakesNoOtherSessionsLock(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), nil)
	defer func() { ts.Close(); s.Close() }()

	const others = 5
	body := edgeStreamCSVRange(t, 0, 1)
	for i := 0; i < others; i++ {
		mustIngest(t, ts.URL, fmt.Sprintf("session=held%d", i), body)
	}
	mustIngest(t, ts.URL, "session=target", body)

	s.sessMu.Lock()
	var held []*forecastSession
	for name, fs := range s.sessions {
		if name != "target" {
			held = append(held, fs)
		}
	}
	s.sessMu.Unlock()
	if len(held) != others {
		t.Fatalf("%d sessions to hold, want %d", len(held), others)
	}
	for _, fs := range held {
		fs.mu.Lock()
	}
	defer func() {
		for _, fs := range held {
			fs.mu.Unlock()
		}
	}()

	done := make(chan error, 1)
	go func() {
		if _, err := s.lookupSession("target"); err != nil {
			done <- fmt.Errorf("lookupSession: %w", err)
			return
		}
		_, created, err := s.getOrCreateSession(ingestQuery{session: "target"})
		if err == nil && created {
			err = fmt.Errorf("getOrCreateSession made a second %q", "target")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolving a session waited for another session's lock")
	}
}

// TestDurableTTLOnOwnRequest is TestSessionTTLEviction's durable
// counterpart: with no background sweeper, a request about a session idle
// past the TTL spills it and carries on from the reloaded state, and a
// session with nothing on disk is dropped.
func TestDurableTTLOnOwnRequest(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), func(c *Config) { c.SessionTTL = 50 * time.Millisecond })
	defer func() { ts.Close(); s.Close() }()

	mustIngest(t, ts.URL, "session=idle", edgeStreamCSVRange(t, 0, 3))
	wantSteps, want := forecastSequenceJSON(t, ts.URL, "idle", 11)
	// A session whose first ingest never got as far as the WAL.
	if _, created, err := s.getOrCreateSession(ingestQuery{session: "empty", window: 1, carry: true}); err != nil || !created {
		t.Fatalf("create session: created=%v err=%v", created, err)
	}

	time.Sleep(120 * time.Millisecond)
	gotSteps, got := forecastSequenceJSON(t, ts.URL, "idle", 11)
	if gotSteps != wantSteps || !bytes.Equal(got, want) {
		t.Fatal("forecast after TTL spill+reload diverges from the resident state")
	}
	if st := s.durabilityStats(); st.Spills != 1 || st.Reloads != 1 {
		t.Fatalf("after a request on the expired session: %+v, want one spill and one reload", st)
	}
	if resp, _ := postForecast(t, ts.URL, ForecastRequest{Session: "empty", T: 2}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session with nothing on disk: status %d, want 404", resp.StatusCode)
	}
}
