package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vrdag/internal/core"
)

// TestInstallSessionKillRecover installs an exported session on a
// durable server and abandons that server without BeginDrain: a later
// server over the same directory recovers the installed state, forecasts
// byte-identically to the session it was exported from, and folds the
// next window onto it exactly as that session does, also across a second
// kill, whose recovery replays the append past the installed snapshot.
func TestInstallSessionKillRecover(t *testing.T) {
	src, srcTS := newDurableServer(t, t.TempDir(), nil)
	defer func() { srcTS.Close(); src.Close() }()
	// Windows 0–2 sealed, window 3 under construction; then the source
	// spills, so the export is its state.snap read back.
	mustIngest(t, srcTS.URL, "session=src&flush=false", edgeStreamCSVRange(t, 0, 4))
	src.sweepSessions(time.Now().Add(src.cfg.SessionTTL + time.Hour))
	if st := src.durabilityStats(); st.SpilledSessions != 1 {
		t.Fatalf("source not spilled: %+v", st)
	}
	model, data, err := src.ExportSession("src")
	if err != nil || model != "email" {
		t.Fatalf("export: model %q, err %v", model, err)
	}
	wantSteps, want := forecastSequenceJSON(t, srcTS.URL, "src", 5)
	if wantSteps != 3 {
		t.Fatalf("source steps %d, want 3", wantSteps)
	}

	dir := t.TempDir()
	dst, dstTS := newDurableServer(t, dir, nil) // killed: never drained, never closed
	if err := dst.InstallSession("copy", "email", data); err != nil {
		t.Fatal(err)
	}
	if steps, got := forecastSequenceJSON(t, dstTS.URL, "copy", 5); steps != wantSteps || string(got) != string(want) {
		t.Fatalf("installed session: steps %d, identical=%v", steps, string(got) == string(want))
	}
	dstTS.Close()

	recovered := func() (*Server, *httptest.Server) {
		t.Helper()
		s, ts := newDurableServer(t, dir, nil)
		if n, err := s.RecoverSessions(); err != nil || n != 1 {
			t.Fatalf("RecoverSessions = %d, %v; want 1 session", n, err)
		}
		return s, ts
	}
	_, ts2 := recovered()
	if steps, got := forecastSequenceJSON(t, ts2.URL, "copy", 5); steps != wantSteps || string(got) != string(want) {
		t.Fatalf("recovered install: steps %d, identical=%v", steps, string(got) == string(want))
	}

	// The next window seals window 3 on both.
	next := edgeStreamCSVRange(t, 4, 5)
	mustIngest(t, srcTS.URL, "session=src", next)
	mustIngest(t, ts2.URL, "session=copy", next)
	wantSteps, want = forecastSequenceJSON(t, srcTS.URL, "src", 6)
	ts2.Close()
	s3, ts3 := recovered()
	defer func() { ts3.Close(); s3.Close() }()
	if steps, got := forecastSequenceJSON(t, ts3.URL, "copy", 6); steps != wantSteps || string(got) != string(want) {
		t.Fatalf("after an append and a second kill: steps %d (want %d), identical=%v",
			steps, wantSteps, string(got) == string(want))
	}
}

// TestInstallSessionRefusals: bytes that do not decode for the model, an
// unknown model and a name that is no session name are refused, and the
// session an install would have replaced keeps serving unchanged.
func TestInstallSessionRefusals(t *testing.T) {
	s, ts := newTestServer(t)
	mustIngest(t, ts.URL, "session=kept", edgeStreamCSVRange(t, 0, 3))
	_, good, err := s.ExportSession("kept")
	if err != nil {
		t.Fatal(err)
	}
	_, want := forecastSequenceJSON(t, ts.URL, "kept", 8)
	for _, tc := range []struct {
		name, sess, model string
		data              []byte
	}{
		{"truncated", "kept", "email", good[:len(good)/2]},
		{"another N", "kept", "email", otherNExport(t)},
		{"unknown model", "kept", "nope", good},
		{"bad name", "../kept", "email", good},
	} {
		if err := s.InstallSession(tc.sess, tc.model, tc.data); err == nil {
			t.Errorf("%s: install accepted", tc.name)
		}
	}
	if _, got := forecastSequenceJSON(t, ts.URL, "kept", 8); string(got) != string(want) {
		t.Fatal("a refused install changed the session")
	}
	if _, _, err := s.ExportSession("absent"); err == nil {
		t.Fatal("export of an unknown session succeeded")
	}
}

// otherNExport is a state.snap payload for a model with another N.
func otherNExport(t testing.TB) []byte {
	t.Helper()
	m, _ := trainedModel(t)
	other := core.New(core.DefaultConfig(m.Cfg.N/2, m.Cfg.F))
	stream, state, err := newSessionState(other, sessionMeta{Window: 1, Carry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer state.Release()
	_, data, err := encodeSessionSnapLocked(&forecastSession{stream: stream, state: state})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzInstallSession holds InstallSession, and with it the state.snap
// decoder that recovery shares, to its contract on arbitrary bytes: it
// returns an error and leaves the session it would have replaced as it
// was, or it installs a session whose stream cursor has the model's N and
// F and whose forecast is a valid sequence. It never panics.
// testdata/fuzz/FuzzInstallSession holds the seeds: a real export (three
// sealed windows and a pending one), the same export truncated, and one
// built for a model with another N.
func FuzzInstallSession(f *testing.F) {
	m, ref := trainedModel(f)
	s := New(Config{SweepInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.Register("email", m, ref); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?session=held",
		strings.NewReader(edgeStreamCSVRange(f, 0, 3))))
	if rec.Code != http.StatusOK {
		f.Fatalf("seed ingest: %d %s", rec.Code, rec.Body)
	}
	_, held, err := s.ExportSession("held")
	if err != nil {
		f.Fatal(err)
	}
	session := func() *forecastSession {
		s.sessMu.Lock()
		defer s.sessMu.Unlock()
		return s.sessions["held"]
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := session()
		state := before.state
		if err := s.InstallSession("held", "email", data); err != nil {
			if fs := session(); fs != before || fs.closed || fs.state != state {
				t.Fatalf("a refused install (%v) replaced or released the session", err)
			}
			return
		}
		defer func() {
			if err := s.InstallSession("held", "email", held); err != nil {
				t.Fatalf("restore: %v", err)
			}
		}()
		fs := session()
		if opts := fs.stream.State().Opts; opts.N != m.Cfg.N || opts.F != m.Cfg.F {
			t.Fatalf("installed stream is N=%d F=%d, model is N=%d F=%d", opts.N, opts.F, m.Cfg.N, m.Cfg.F)
		}
		seq, err := m.Forecast(context.Background(), fs.state, core.GenOptions{T: 2, Seed: 3})
		if err != nil {
			t.Fatalf("forecast from an installed session: %v", err)
		}
		if err := seq.Validate(); err != nil {
			t.Fatalf("forecast from an installed session fails Validate: %v", err)
		}
	})
}
