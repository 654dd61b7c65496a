package server

import (
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
	"syscall"
	"testing"
	"time"

	"vrdag/internal/durable"
)

// newDurableServer builds a server persisting sessions under dir. The
// background sweeper is disabled so tests drive sweeps deterministically;
// crash tests deliberately skip Close to model a kill.
func newDurableServer(t *testing.T, dir string, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	m, ref := trainedModel(t)
	cfg := Config{
		DataDir:       dir,
		SweepInterval: -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	return s, ts
}

// edgeStreamCSVRange renders reference windows [fromT, toT) as ingest CSV.
func edgeStreamCSVRange(t testing.TB, fromT, toT int) string {
	t.Helper()
	_, ref := trainedModel(t)
	if toT > ref.T() {
		t.Fatalf("range end %d past reference %d", toT, ref.T())
	}
	var sb strings.Builder
	sb.WriteString("src,dst,t\n")
	for tt := fromT; tt < toT; tt++ {
		s := ref.At(tt)
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				fmt.Fprintf(&sb, "n%d,n%d,%d\n", u, v, tt)
			}
		}
	}
	return sb.String()
}

// csvChunks splits an ingest CSV into n bodies of consecutive rows, each
// with the header.
func csvChunks(csv string, n int) []string {
	header, rows, _ := strings.Cut(csv, "\n")
	lines := strings.Split(strings.TrimSuffix(rows, "\n"), "\n")
	chunks := make([]string, n)
	for i := range chunks {
		chunks[i] = header + "\n" + strings.Join(lines[i*len(lines)/n:(i+1)*len(lines)/n], "\n") + "\n"
	}
	return chunks
}

// forecastSequenceJSON forecasts with a pinned seed and returns the
// sequence re-marshalled on its own, so volatile fields (elapsed time)
// don't enter the byte comparison.
func forecastSequenceJSON(t *testing.T, url, session string, seed int64) (steps int, seq []byte) {
	t.Helper()
	resp, data := postForecast(t, url, ForecastRequest{Session: session, T: 4, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d: %s", resp.StatusCode, data)
	}
	var fr ForecastResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("decode forecast: %v", err)
	}
	out, err := json.Marshal(fr.Sequence)
	if err != nil {
		t.Fatalf("re-marshal sequence: %v", err)
	}
	return fr.Steps, out
}

func mustIngest(t *testing.T, url, query, body string) IngestResponse {
	t.Helper()
	resp, data := postIngest(t, url, query, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %q status %d: %s", query, resp.StatusCode, data)
	}
	var ing IngestResponse
	if err := json.Unmarshal(data, &ing); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return ing
}

// TestSessionKillRecoverForecastIdentity is the PR's acceptance bar: a
// server killed without any shutdown hook (no drain, no flush) must come
// back — snapshot plus WAL-tail replay — with forecasts byte-identical
// to the pre-crash session, including the half-built flush=false window.
func TestSessionKillRecoverForecastIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil) // killed: never drained, never closed

	// Windows 0–3 arrive split across snapshotEvery unflushed requests, so
	// the session compacts once, mid-window; the next request lives only
	// in the WAL tail.
	sessDir := filepath.Join(dir, "sessions", "live")
	for i, chunk := range csvChunks(edgeStreamCSVRange(t, 0, 4), snapshotEvery) {
		mustIngest(t, ts1.URL, "session=live&flush=false", chunk)
		if _, err := os.Stat(filepath.Join(sessDir, sessionSnapFile)); (err == nil) != (i == snapshotEvery-1) {
			t.Fatalf("after ingest %d of %d: state.snap stat err = %v", i+1, snapshotEvery, err)
		}
	}
	// The tail request seals window 3 and leaves window 4 under construction.
	ing := mustIngest(t, ts1.URL, "session=live&flush=false", edgeStreamCSVRange(t, 4, 5))
	if !ing.Pending || ing.Steps != 4 {
		t.Fatalf("pre-crash session: steps=%d pending=%v, want 4/true", ing.Steps, ing.Pending)
	}
	if st := s1.durabilityStats(); st.Snapshots != 1 || st.WALAppends != snapshotEvery+1 {
		t.Fatalf("pre-crash stats: %d snapshots / %d WAL appends, want 1 / %d", st.Snapshots, st.WALAppends, snapshotEvery+1)
	}
	wantSteps, want := forecastSequenceJSON(t, ts1.URL, "live", 42)
	if wantSteps != 4 {
		t.Fatalf("pre-crash forecast steps = %d, want 4", wantSteps)
	}
	ts1.Close() // kill: the server object is simply abandoned

	// A later process recovers the session and forecasts identically.
	s2, ts2 := newDurableServer(t, dir, nil)
	n, err := s2.RecoverSessions()
	if err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v, want 1 session", n, err)
	}
	gotSteps, got := forecastSequenceJSON(t, ts2.URL, "live", 42)
	if gotSteps != wantSteps {
		t.Fatalf("recovered forecast steps = %d, want %d", gotSteps, wantSteps)
	}
	if string(got) != string(want) {
		t.Fatal("recovered forecast differs from pre-crash forecast")
	}
	if st := s2.durabilityStats(); st.Recoveries != 1 || st.WALAppends != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}

	// The recovered cursor continues exactly where the killed one stood:
	// sealing the pending window plus one more yields six steps total.
	ing = mustIngest(t, ts2.URL, "session=live", edgeStreamCSVRange(t, 5, 6))
	if ing.Steps != 6 || ing.Pending {
		t.Fatalf("post-recovery ingest: steps=%d pending=%v, want 6/false", ing.Steps, ing.Pending)
	}
	ts2.Close() // kill again, leaving that ingest only in the WAL

	// A torn WAL tail — the unacknowledged debris of a crash mid-append —
	// is truncated away; everything acknowledged still recovers.
	var walPath string
	entries, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := durable.ParseWALGen(e.Name()); ok {
			walPath = filepath.Join(sessDir, e.Name())
		}
	}
	if walPath == "" {
		t.Fatal("no WAL file found to tear")
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn garbage from a crash mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s3, ts3 := newDurableServer(t, dir, nil)
	defer func() { ts3.Close(); s3.Close() }()
	if n, err := s3.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("RecoverSessions after tear = %d, %v", n, err)
	}
	if st := s3.durabilityStats(); st.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.TornTails)
	}
	steps3, _ := forecastSequenceJSON(t, ts3.URL, "live", 42)
	if steps3 != 6 {
		t.Fatalf("post-tear recovered steps = %d, want 6", steps3)
	}
}

// TestDrainFlushesSessionsToSnapshot: BeginDrain compacts every dirty
// session, so a cleanly drained server restarts from snapshots alone —
// pinned by deleting the WAL files before recovering.
func TestDrainFlushesSessionsToSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	// One ingest, fewer than snapshotEvery: only the drain can compact.
	mustIngest(t, ts1.URL, "session=clean", edgeStreamCSVRange(t, 0, 3))
	want, wantSeq := forecastSequenceJSON(t, ts1.URL, "clean", 7)

	sessDir := filepath.Join(dir, "sessions", "clean")
	if _, err := os.Stat(filepath.Join(sessDir, sessionSnapFile)); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists before drain (1 of %d ingests): %v", snapshotEvery, err)
	}
	s1.BeginDrain()
	if _, err := os.Stat(filepath.Join(sessDir, sessionSnapFile)); err != nil {
		t.Fatalf("drain did not flush the session snapshot: %v", err)
	}
	ts1.Close()
	s1.Close()

	// Snapshot-only recovery: remove every WAL file.
	entries, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := durable.ParseWALGen(e.Name()); ok {
			os.Remove(filepath.Join(sessDir, e.Name()))
		}
	}
	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()
	if n, err := s2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v", n, err)
	}
	got, gotSeq := forecastSequenceJSON(t, ts2.URL, "clean", 7)
	if got != want || string(gotSeq) != string(wantSeq) {
		t.Fatal("snapshot-only recovery diverges from the drained session")
	}
}

// TestIngestDegradedReadOnly: a full disk (ENOSPC on the WAL fsync path)
// flips the server into read-only mode — ingest sheds with 503 and
// Retry-After, forecasts keep serving, /healthz reports the latch with
// its reason and /metrics reports it as vrdag_durability_degraded.
func TestIngestDegradedReadOnly(t *testing.T) {
	ff := durable.NewFaultFS(durable.OS, durable.Fault{WriteBudget: -1})
	s, ts := newDurableServer(t, t.TempDir(), func(c *Config) { c.FS = ff })
	defer func() { ts.Close(); s.Close() }()

	mustIngest(t, ts.URL, "session=d", edgeStreamCSVRange(t, 0, 3))

	// The disk fills up: every later write fails with ENOSPC.
	ff.SetFault(durable.Fault{WriteBudget: -1, FailWrites: 1, Err: syscall.ENOSPC})

	resp, data := postIngest(t, ts.URL, "session=d", edgeStreamCSVRange(t, 3, 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on full disk: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The latch holds: the next ingest is shed before any work happens.
	resp, _ = postIngest(t, ts.URL, "session=d", edgeStreamCSVRange(t, 3, 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d, want 503", resp.StatusCode)
	}

	// Reads are unaffected.
	if steps, _ := forecastSequenceJSON(t, ts.URL, "d", 9); steps != 3 {
		t.Fatalf("degraded forecast steps = %d, want 3", steps)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !health.Degraded || health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("healthz = %+v, want degraded with a reason", health)
	}

	text := scrape(t, ts.URL)
	if v := promSample(t, text, "vrdag_durability_degraded"); v != 1 {
		t.Fatalf("vrdag_durability_degraded = %v, want 1", v)
	}
	appends, fsyncs := promSample(t, text, "vrdag_wal_appends_total"), promSample(t, text, "vrdag_fsync_total")
	if appends < 1 || fsyncs < 1 {
		t.Fatalf("wal_appends=%v fsyncs=%v, want both >= 1 from the healthy phase", appends, fsyncs)
	}
	if n := promSample(t, text, "vrdag_fsync_duration_ms_count"); n != fsyncs {
		t.Fatalf("vrdag_fsync_duration_ms_count = %v, want vrdag_fsync_total's %v", n, fsyncs)
	}
}

// TestSpillReloadForecastIdentity: the MaxResident cap spills the
// longest-idle session to disk; it stays listed (with cached counters),
// and the next forecast transparently reloads bit-identical state.
func TestSpillReloadForecastIdentity(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), func(c *Config) { c.MaxResident = 1 })
	defer func() { ts.Close(); s.Close() }()

	mustIngest(t, ts.URL, "session=old", edgeStreamCSVRange(t, 0, 3))
	wantSteps, want := forecastSequenceJSON(t, ts.URL, "old", 11)
	time.Sleep(5 * time.Millisecond) // order the idle clocks
	mustIngest(t, ts.URL, "session=new", edgeStreamCSVRange(t, 0, 2))

	s.sweepSessions(time.Now())
	if st := s.durabilityStats(); st.Spills != 1 || st.SpilledSessions != 1 {
		t.Fatalf("after sweep: %+v, want exactly the idler session spilled", st)
	}

	lr, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	var infos []SessionInfo
	if err := json.NewDecoder(lr.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	spilledListed := false
	for _, info := range infos {
		if info.Session == "old" {
			spilledListed = info.Spilled && info.Steps == 3 && info.Edges > 0
		}
	}
	if !spilledListed {
		t.Fatalf("spilled session not listed with cached counters: %+v", infos)
	}

	gotSteps, got := forecastSequenceJSON(t, ts.URL, "old", 11)
	if gotSteps != wantSteps || string(got) != string(want) {
		t.Fatal("forecast after spill+reload diverges from the resident state")
	}
	if st := s.durabilityStats(); st.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", st.Reloads)
	}
}

// TestSpillReloadMissingSnapshot: a spilled session whose state.snap is
// gone is refused with 503 and stays spilled, rather than reloading as
// the fresh state the startup reader builds when no snapshot exists.
func TestSpillReloadMissingSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir, nil)
	defer func() { ts.Close(); s.Close() }()

	mustIngest(t, ts.URL, "session=lost", edgeStreamCSVRange(t, 0, 3))
	s.sweepSessions(time.Now().Add(s.cfg.SessionTTL + time.Hour))
	if st := s.durabilityStats(); st.SpilledSessions != 1 {
		t.Fatalf("after sweep: %+v, want the session spilled", st)
	}
	if err := os.Remove(filepath.Join(s.sessionDir("lost"), sessionSnapFile)); err != nil {
		t.Fatal(err)
	}
	if resp, data := postForecast(t, ts.URL, ForecastRequest{Session: "lost", T: 2}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forecast without a snapshot: status %d, want 503 (%s)", resp.StatusCode, data)
	}
	if st := s.durabilityStats(); st.SpilledSessions != 1 || st.Reloads != 0 {
		t.Fatalf("after the failed reload: %+v, want still spilled, no reload", st)
	}
}

// TestValidSessionName pins the traversal hardening: names are on-disk
// directory components in durable mode, so anything that could escape
// the sessions root must be rejected.
func TestValidSessionName(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"live", true},
		{"a", true},
		{"A-b_c.9", true},
		{"x" + strings.Repeat("y", 63), true},
		{"", false},
		{"x" + strings.Repeat("y", 64), false},
		{".", false},
		{"..", false},
		{".hidden", false},
		{"..evil", false},
		{"../evil", false},
		{"..\\evil", false},
		{"a/b", false},
		{"a\\b", false},
		{"a b", false},
		{"a\x00b", false},
		{"sess/../../etc", false},
		{"ok..inner", true}, // dots inside a name are data, not traversal
	}
	for _, tc := range cases {
		if got := validSessionName(tc.name); got != tc.ok {
			t.Errorf("validSessionName(%q) = %v, want %v", tc.name, got, tc.ok)
		}
	}

	// End to end: a traversal name never reaches the filesystem layer.
	s, ts := newDurableServer(t, t.TempDir(), nil)
	defer func() { ts.Close(); s.Close() }()
	resp, _ := postIngest(t, ts.URL, "session=..", "src,dst,t\na,b,0\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest with session=\"..\": status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentIngestForecastSpill hammers a durable server with
// concurrent ingests, forecasts, listings, and sweeps under a 1-session
// residency cap — the race detector referees the spill/reload/ingest
// lock dance.
func TestConcurrentIngestForecastSpill(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), func(c *Config) {
		c.MaxResident = 1
		c.SessionTTL = 20 * time.Millisecond
	})
	defer func() { ts.Close(); s.Close() }()

	const workers = 4
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			session := fmt.Sprintf("w%d", w)
			for tt := 0; time.Now().Before(deadline); tt++ {
				body := fmt.Sprintf("src,dst,t\na%d,b%d,%d\n", tt%8, (tt+1)%8, tt)
				resp, data := postIngest(t, ts.URL, "session="+session, body)
				// The 20ms TTL makes the (detected, pre-append) race
				// between sweeper eviction and a queued ingest likely;
				// that 400 is the server working as designed.
				if resp.StatusCode == http.StatusBadRequest &&
					strings.Contains(string(data), "evicted mid-request") {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest %s: status %d: %s", session, resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(5)
		for time.Now().Before(deadline) {
			session := fmt.Sprintf("w%d", time.Now().UnixNano()%workers)
			resp, data := postForecast(t, ts.URL, ForecastRequest{Session: session, T: 2, Seed: &seed})
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
			default:
				t.Errorf("forecast %s: status %d: %s", session, resp.StatusCode, data)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.sweepSessions(time.Now())
			if resp, err := http.Get(ts.URL + "/v1/ingest"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if s.degraded.Load() {
		t.Fatalf("server degraded under concurrency: %s", s.degradedReason())
	}
	if st := s.durabilityStats(); st.WALAppends == 0 || st.Spills == 0 {
		t.Fatalf("stress run exercised nothing: %+v", st)
	}
}
