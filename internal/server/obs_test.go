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
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vrdag/internal/obs"
)

// Tests for the observability surface: the lock-free endpoint histogram's
// bucket discipline, a deterministic and lint-clean Prometheus exposition,
// and the /v1/trace query endpoint.

// TestEndpointStatsBucketBoundaries pins the strict-> bucket walk: a
// latency exactly on a bound lands in that bound's bucket, one microsecond
// over rolls into the next, and anything past the last bound lands in the
// implicit +Inf slot. The per-bucket atomics and the cumulative Prometheus
// histogram rendered from them are checked against the same table.
func TestEndpointStatsBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Microsecond, 0},
		{1 * time.Millisecond, 0},    // exactly on the 1ms bound
		{1001 * time.Microsecond, 1}, // 1µs over rolls into the 2.5ms bucket
		{2500 * time.Microsecond, 1}, // exactly on the 2.5ms bound
		{2501 * time.Microsecond, 2},
		{10 * time.Millisecond, 3},
		{25 * time.Millisecond, 4},
		{5 * time.Second, len(latencyBucketsMS) - 1}, // exactly on the last bound
		{6 * time.Second, len(latencyBucketsMS)},     // +Inf
	}

	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	st := s.statsFor("/v1/generate")
	want := make([]int64, len(latencyBucketsMS)+1)
	for _, c := range cases {
		st.observe(http.StatusOK, c.d)
		want[c.bucket]++
	}
	if got := st.requests.Load(); got != int64(len(cases)) {
		t.Fatalf("requests = %d, want %d", got, len(cases))
	}
	for i, w := range want {
		if got := st.buckets[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}

	// Prometheus rendering: cumulative counts per le bound, read back out
	// of the server's exposition for the /v1/generate path.
	var expo obs.Expo
	s.renderProm(&expo)
	text := string(expo.Bytes())
	const family, path = "vrdag_http_request_duration_ms_bucket", `path="/v1/generate"`
	cum := int64(0)
	for i, bound := range latencyBucketsMS {
		cum += want[i]
		le := `le="` + strconv.FormatFloat(bound, 'g', -1, 64) + `"`
		if got := promSample(t, text, family, path, le); got != float64(cum) {
			t.Errorf("prom bucket %s = %v, want %d", le, got, cum)
		}
	}
	if got := promSample(t, text, family, path, `le="+Inf"`); got != float64(len(cases)) {
		t.Errorf("prom bucket le=+Inf = %v, want %d", got, len(cases))
	}
}

// promSample extracts one sample of family from exposition text: the
// first line of exactly that metric name carrying every given label
// (`key="value"`, matched regardless of label order).
func promSample(t *testing.T, text, family string, labels ...string) float64 {
	t.Helper()
next:
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no %s sample with labels %v in exposition", family, labels)
	return 0
}

// scrape fetches /metrics from a live server.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	return string(body)
}

// TestEndpointStatsConcurrentObserve races writers against readers of the
// same atomics a scrape loads (run under -race in CI) and checks nothing
// is lost: every observation lands in exactly one bucket and the counters
// agree.
func TestEndpointStatsConcurrentObserve(t *testing.T) {
	const writers, perWriter = 8, 500
	var e endpointStats
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// Mid-flight loads carry no cross-counter invariant (they are
			// independent), so the readers' job is purely to race against
			// observe — -race flags any unsynchronized access.
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range e.buckets {
					e.buckets[i].Load()
				}
				if e.requests.Load() < 0 || e.totalUS.Load() < 0 {
					t.Error("negative counter")
					return
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				status := http.StatusOK
				if i%7 == 0 {
					status = http.StatusTooManyRequests
				}
				e.observe(status, time.Duration(i%20)*time.Millisecond)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := e.requests.Load(); got != writers*perWriter {
		t.Fatalf("requests = %d, want %d", got, writers*perWriter)
	}
	var inBuckets int64
	for i := range e.buckets {
		inBuckets += e.buckets[i].Load()
	}
	if inBuckets != writers*perWriter {
		t.Fatalf("bucket sum = %d, want %d", inBuckets, writers*perWriter)
	}
	if errs, shed := e.errors.Load(), e.shed.Load(); errs != shed || shed == 0 {
		t.Fatalf("errors=%d shed=%d, want equal and non-zero (all errors were 429s)", errs, shed)
	}
}

// TestPromRenderDeterministic renders the exposition twice on a quiesced
// server and requires identical bytes once the lines that legitimately
// move between two renders (uptime, heap, allocated bytes, goroutines, GC
// pause) are dropped — pinning that map iteration order never leaks into
// /metrics.
func TestPromRenderDeterministic(t *testing.T) {
	srv, ts := newTestServer(t)
	seed := int64(7)
	if resp, _ := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up generate: status %d", resp.StatusCode)
	}
	http.Get(ts.URL + "/no/such/path") // populate the catch-all slot too

	render := func() string {
		var e obs.Expo
		srv.renderProm(&e)
		var keep []string
	lines:
		for _, line := range strings.Split(string(e.Bytes()), "\n") {
			for _, moving := range []string{"vrdag_uptime_seconds ", "vrdag_heap_alloc_bytes ", "vrdag_heap_allocated_bytes_total ", "vrdag_goroutines ", "vrdag_gc_pause_total_ms "} {
				if strings.HasPrefix(line, moving) {
					continue lines
				}
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("successive renders differ:\n%s\n%s", a, b)
	}
}

// TestPromExpositionLintsClean scrapes a live server and runs the
// exposition through the in-repo linter — the same gate CI applies via
// cmd/vrdag-promlint.
func TestPromExpositionLintsClean(t *testing.T) {
	_, ts := newTestServer(t)
	seed := int64(11)
	postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	if errs := obs.Lint(bytes.NewReader(body)); len(errs) > 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	for _, family := range []string{
		"vrdag_up", "vrdag_http_requests_total", "vrdag_http_request_duration_ms_bucket",
		"vrdag_tracing_enabled", "vrdag_traces_started_total", "vrdag_compute_backend",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("exposition missing family %s", family)
		}
	}

	post, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	io.Copy(io.Discard, post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", post.StatusCode)
	}
}

// TestScrapesNeverWaitForAdmission pins that no read-only endpoint does
// admitted work: with the single admission slot taken, generation sheds
// with 429 while every scrape and listing still answers 200.
func TestScrapesNeverWaitForAdmission(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{AdmitDepth: 1, AdmitWait: 20 * time.Millisecond, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.admitCh <- struct{}{} // occupy the single admission slot
	defer func() { <-s.admitCh }()

	for _, path := range []string{"/metrics", "/healthz", "/v1/models", "/v1/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with admission full: status %d, want 200", path, resp.StatusCode)
		}
	}
	seed := int64(1)
	if resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("generate with admission full: status %d, want 429 (%s)", resp.StatusCode, data)
	}
}

// TestRoutesMatchREADME holds README's endpoint table and the mux to each
// other: every routed path has a row and every row's path is routed.
func TestRoutesMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Endpoint | Meaning |\n")
	if !ok {
		t.Fatal("README has no endpoint table")
	}
	row := regexp.MustCompile("^\\| `(?:GET|POST|DELETE) (/[^ ?`]*)")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break // end of the table
		}
		if m := row.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}

	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	for path := range s.endpointStats {
		if path != "other" && !documented[path] {
			t.Errorf("route %s has no row in README's endpoint table", path)
		}
	}
	for path := range documented {
		if _, routed := s.endpointStats[path]; !routed {
			t.Errorf("README documents %s, which is not routed", path)
		}
	}
}

// TestTraceEndpointClientSuppliedID drives a generate with an
// X-Vrdag-Trace header and reads the trace back by that ID: the response
// must echo the ID, and the retained trace must carry admit and decode
// spans whose offsets sit inside the recorded wall time.
func TestTraceEndpointClientSuppliedID(t *testing.T) {
	_, ts := newTestServer(t)
	const id = "0badc0de0badc0de0badc0de0badc0de"
	seed := int64(5)
	body, _ := json.Marshal(GenerateRequest{Model: "email", T: 3, Seed: &seed})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(body))
	req.Header.Set(obs.Header, id)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	wall := time.Since(start)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.Header); got != id {
		t.Fatalf("response trace header = %q, want %q", got, id)
	}

	tr, err := http.Get(ts.URL + "/v1/trace?id=" + id)
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace query: status %d", tr.StatusCode)
	}
	var out TraceQueryResponse
	if err := json.NewDecoder(tr.Body).Decode(&out); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(out.Traces) != 1 {
		t.Fatalf("got %d traces for id, want 1", len(out.Traces))
	}
	v := out.Traces[0]
	if v.ID != id || v.Status != http.StatusOK {
		t.Fatalf("trace view: id=%q status=%d", v.ID, v.Status)
	}
	checkSpanCoverage(t, []obs.TraceView{v}, "admit", "decode", "json.encode")
	checkSpanTimes(t, v, wall)
	if n := countSpans(v, "decode"); n != 3 {
		t.Fatalf("decode spans = %d, want one per timestep (3)", n)
	}

	// An unknown ID is a 404, and the no-id form returns recent/slowest.
	if r404, _ := http.Get(ts.URL + "/v1/trace?id=ffffffffffffffff"); r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", r404.StatusCode)
	} else {
		io.Copy(io.Discard, r404.Body)
		r404.Body.Close()
	}
	rr, err := http.Get(ts.URL + "/v1/trace?n=5")
	if err != nil {
		t.Fatalf("GET /v1/trace?n=5: %v", err)
	}
	defer rr.Body.Close()
	var recent TraceQueryResponse
	if err := json.NewDecoder(rr.Body).Decode(&recent); err != nil {
		t.Fatalf("decode recent: %v", err)
	}
	if len(recent.Recent) == 0 || !recent.Stats.Enabled {
		t.Fatalf("recent listing empty or tracing reported disabled: %+v", recent.Stats)
	}
}

// TestTraceCoversDurableIngest runs a flushed ingest on a durable server
// and requires the trace to record the full write path: admission, the
// fold, the WAL append (fsync included), and the window encode.
func TestTraceCoversDurableIngest(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{
		DataDir: t.TempDir(),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	const id = "feedfacefeedface"
	csv := "src,dst,t\nn0,n1,0\nn1,n2,0\nn2,n0,0\n"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?session=wal-trace", strings.NewReader(csv))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(obs.Header, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, data)
	}

	views := s.tracer.ByID(id)
	if len(views) != 1 {
		t.Fatalf("got %d traces, want 1", len(views))
	}
	checkSpanCoverage(t, views, "admit", "ingest.fold", "wal.append", "encode")
}

// TestEveryRequestTraced: with the default tracer, every traceable request
// without a client-supplied ID is traced under a fresh ID; none is skipped,
// and /metrics carries no sampler family.
func TestEveryRequestTraced(t *testing.T) {
	s, ts := newTestServer(t)
	const n = 6
	ids := map[string]bool{}
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/v1/models")
		if err != nil {
			t.Fatalf("GET /v1/models: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids[resp.Header.Get(obs.Header)] = true
	}
	if len(ids) != n || ids[""] {
		t.Fatalf("%d requests returned trace IDs %v, want %d distinct", n, ids, n)
	}
	if st := s.tracer.Stats(); st.Started != n || st.Finished != n {
		t.Fatalf("tracer stats %+v, want started == finished == %d", st, n)
	}
	text := scrape(t, ts.URL)
	if got := promSample(t, text, "vrdag_traces_finished_total"); got != n {
		t.Fatalf("vrdag_traces_finished_total = %v, want %d", got, n)
	}
	if strings.Contains(text, "vrdag_traces_sampled_out_total") {
		t.Fatal("/metrics still exposes the trace sampler's family")
	}
}

func countSpans(v obs.TraceView, name string) int {
	n := 0
	for _, sp := range v.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// checkSpanCoverage asserts every named span appears somewhere in views.
func checkSpanCoverage(t *testing.T, views []obs.TraceView, names ...string) {
	t.Helper()
	seen := map[string]bool{}
	for _, v := range views {
		for _, sp := range v.Spans {
			seen[sp.Name] = true
		}
	}
	for _, n := range names {
		if !seen[n] {
			t.Errorf("no %q span recorded (saw %v)", n, spanNames(views))
		}
	}
}

func spanNames(views []obs.TraceView) []string {
	var out []string
	for _, v := range views {
		for _, sp := range v.Spans {
			out = append(out, fmt.Sprintf("%s/%s", v.Node, sp.Name))
		}
	}
	return out
}

// checkSpanTimes asserts spans sit inside the trace's wall time and the
// trace's wall time inside the client-observed wall time.
func checkSpanTimes(t *testing.T, v obs.TraceView, observed time.Duration) {
	t.Helper()
	if v.WallUS <= 0 || v.WallUS > observed.Microseconds() {
		t.Errorf("trace wall %dus outside observed %dus", v.WallUS, observed.Microseconds())
	}
	var sum int64
	for _, sp := range v.Spans {
		if sp.StartUS < 0 || sp.DurUS < 0 || sp.StartUS+sp.DurUS > v.WallUS {
			t.Errorf("span %s [%d,+%d]us escapes trace wall %dus", sp.Name, sp.StartUS, sp.DurUS, v.WallUS)
		}
		sum += sp.DurUS
	}
	// Request spans on one node do not overlap, so their durations cannot
	// sum past the wall clock.
	if sum > v.WallUS {
		t.Errorf("span durations sum to %dus > wall %dus", sum, v.WallUS)
	}
}
