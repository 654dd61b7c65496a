package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vrdag/internal/tensor"
)

// edgeStreamCSV renders a reference-sequence prefix as the CSV the ingest
// endpoint accepts, using string node IDs to exercise the ID mapping.
func edgeStreamCSV(t *testing.T, prefixT int) string {
	t.Helper()
	_, ref := trainedModel(t)
	if prefixT > ref.T() {
		t.Fatalf("prefix %d longer than reference %d", prefixT, ref.T())
	}
	var sb strings.Builder
	sb.WriteString("src,dst,t\n")
	for tt := 0; tt < prefixT; tt++ {
		s := ref.At(tt)
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				fmt.Fprintf(&sb, "n%d,n%d,%d\n", u, v, tt)
			}
		}
	}
	return sb.String()
}

func postIngest(t *testing.T, url, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest?"+query, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/ingest: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func postForecast(t *testing.T, url string, req ForecastRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/forecast: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestIngestForecastRoundTrip drives the whole conditioned-generation path
// over HTTP: upload an observed prefix, forecast from it twice with one
// seed (must agree), and confirm the response carries the session context.
func TestIngestForecastRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	resp, data := postIngest(t, ts.URL, "session=live", edgeStreamCSV(t, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	var ing IngestResponse
	if err := json.Unmarshal(data, &ing); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	if !ing.Created || ing.Session != "live" || ing.Model != "email" {
		t.Fatalf("ingest response: %+v", ing)
	}
	if ing.Steps != 3 || ing.Absorbed != 3 {
		t.Fatalf("steps = %d absorbed = %d, want 3/3", ing.Steps, ing.Absorbed)
	}
	if ing.Edges == 0 || ing.Nodes == 0 {
		t.Fatalf("counters empty: %+v", ing)
	}

	seed := int64(99)
	freq := ForecastRequest{Session: "live", T: 4, Seed: &seed}
	resp, data = postForecast(t, ts.URL, freq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d: %s", resp.StatusCode, data)
	}
	var f1 ForecastResponse
	if err := json.Unmarshal(data, &f1); err != nil {
		t.Fatalf("decode forecast response: %v", err)
	}
	if f1.Session != "live" || f1.Steps != 3 || f1.Seed != seed {
		t.Fatalf("forecast response context: %+v", f1)
	}
	if f1.Sequence == nil || f1.Sequence.T() != 4 {
		t.Fatal("forecast sequence missing or wrong length")
	}
	if err := f1.Sequence.Validate(); err != nil {
		t.Fatalf("forecast sequence invalid: %v", err)
	}

	_, data2 := postForecast(t, ts.URL, freq)
	var f2 ForecastResponse
	if err := json.Unmarshal(data2, &f2); err != nil {
		t.Fatalf("decode repeat forecast: %v", err)
	}
	a, _ := json.Marshal(f1.Sequence)
	b, _ := json.Marshal(f2.Sequence)
	if !bytes.Equal(a, b) {
		t.Fatal("same session + seed produced different forecasts")
	}
}

// TestIngestIncremental: a session fed in two chunks accumulates steps
// across requests — the stream cursor and model state survive between
// uploads.
func TestIngestIncremental(t *testing.T) {
	_, ts := newTestServer(t)

	resp, data := postIngest(t, ts.URL, "session=inc", "a,b,0\nb,c,0\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk 1 status %d: %s", resp.StatusCode, data)
	}
	var ing IngestResponse
	json.Unmarshal(data, &ing)
	if ing.Steps != 1 {
		t.Fatalf("after chunk 1: steps = %d, want 1", ing.Steps)
	}

	resp, data = postIngest(t, ts.URL, "session=inc", "c,a,1\na,c,2\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk 2 status %d: %s", resp.StatusCode, data)
	}
	var ing2 IngestResponse
	json.Unmarshal(data, &ing2)
	if ing2.Created {
		t.Fatal("second chunk must not report session creation")
	}
	if ing2.Steps != 3 || ing2.Absorbed != 2 {
		t.Fatalf("after chunk 2: steps = %d absorbed = %d, want 3/2", ing2.Steps, ing2.Absorbed)
	}
	if ing2.Nodes != 3 {
		t.Fatalf("node mapping not shared across chunks: %d", ing2.Nodes)
	}
}

// TestIngestGzipBody: a gzip-compressed upload is sniffed and folded
// through the shared dyngraph compression path.
func TestIngestGzipBody(t *testing.T) {
	_, ts := newTestServer(t)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	io.WriteString(zw, "a,b,0\nb,a,1\n")
	zw.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest?session=gz", "application/gzip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip ingest status %d: %s", resp.StatusCode, data)
	}
	var ing IngestResponse
	json.Unmarshal(data, &ing)
	if ing.Steps != 2 || ing.Edges != 2 {
		t.Fatalf("gzip ingest folded %d steps / %d edges, want 2/2", ing.Steps, ing.Edges)
	}
}

// TestForecastStreamNDJSON: the streaming forecast endpoint emits the
// session-aware header, one line per snapshot, and a done trailer.
func TestForecastStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, data := postIngest(t, ts.URL, "session=str", edgeStreamCSV(t, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, data)
	}

	seed := int64(5)
	body, _ := json.Marshal(ForecastRequest{Session: "str", T: 3, Seed: &seed})
	resp, err := http.Post(ts.URL+"/v1/forecast/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var header StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if header.Session != "str" || header.Steps != 2 || header.T != 3 {
		t.Fatalf("header = %+v", header)
	}

	snaps := 0
	var trailer StreamTrailer
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"edges"`)) {
			snaps++
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatalf("decode trailer: %v", err)
		}
		done = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !done || !trailer.Done || trailer.Emitted != 3 || snaps != 3 {
		t.Fatalf("stream shape: snaps=%d trailer=%+v", snaps, trailer)
	}
}

// TestSessionLifecycleErrors covers the failure surfaces: unknown
// sessions, bad session names, malformed bodies (session survives), model
// mismatch, and deletion.
func TestSessionLifecycleErrors(t *testing.T) {
	_, ts := newTestServer(t)

	// Forecast from a session that never existed.
	resp, _ := postForecast(t, ts.URL, ForecastRequest{Session: "ghost", T: 2})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session: status %d, want 404", resp.StatusCode)
	}

	// Invalid session name.
	if resp, _ := postIngest(t, ts.URL, "session=bad/name", "a,b,0\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, want 400", resp.StatusCode)
	}

	// Malformed body errors but the session (created first) survives with
	// the records that preceded the bad line unabsorbed or absorbed
	// deterministically — either way it keeps serving.
	if resp, data := postIngest(t, ts.URL, "session=sticky", "a,b,0\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", resp.StatusCode, data)
	}
	if resp, _ := postIngest(t, ts.URL, "session=sticky", "zzz\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postForecast(t, ts.URL, ForecastRequest{Session: "sticky", T: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("session did not survive a failed ingest: %d", resp.StatusCode)
	}

	// Model mismatch on an existing session.
	if resp, _ := postIngest(t, ts.URL, "session=sticky&model=other", "a,b,5\n"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("model mismatch: status %d, want 409", resp.StatusCode)
	}

	// Delete, then 404 on reuse.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/ingest?session=sticky", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if resp, _ := postForecast(t, ts.URL, ForecastRequest{Session: "sticky", T: 2}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still serves: %d", resp.StatusCode)
	}
}

// TestIngestModelLookupIs404: an ingest whose model lookup fails — a name
// no model is registered under, or no name while two models are
// registered — is answered 404 as /v1/generate answers it, not shed with
// 429 as if the server were out of session capacity, and creates nothing.
func TestIngestModelLookupIs404(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for _, name := range []string{"email", "email2"} {
		if err := s.Register(name, m, ref); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	cases := []struct{ name, query string }{
		{"unknown model", "session=a&model=nope"},
		{"no model, two registered", "session=b"},
	}
	for _, c := range cases {
		resp, data := postIngest(t, ts.URL, c.query, "a,b,0\n")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (%s)", c.name, resp.StatusCode, data)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on a lookup error", c.name, ra)
		}
	}
	if shed := s.statsFor("/v1/ingest").shed.Load(); shed != 0 {
		t.Errorf("%d lookup errors counted as shed", shed)
	}
	s.sessMu.Lock()
	n := len(s.sessions)
	s.sessMu.Unlock()
	if n != 0 {
		t.Errorf("%d sessions created by failed lookups", n)
	}
}

// TestSessionList: GET /v1/ingest reports live sessions with counters.
func TestSessionList(t *testing.T) {
	_, ts := newTestServer(t)
	postIngest(t, ts.URL, "session=lista", "a,b,0\n")
	postIngest(t, ts.URL, "session=listb", "a,b,0\nb,a,1\n")

	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	found := 0
	for _, info := range infos {
		if info.Session == "lista" || info.Session == "listb" {
			found++
			if info.Model != "email" || info.Steps == 0 || info.TTLS <= 0 {
				t.Fatalf("session info incomplete: %+v", info)
			}
		}
	}
	if found != 2 {
		t.Fatalf("list found %d of 2 sessions", found)
	}
}

// TestSessionTTLEviction: a session idle past the TTL vanishes and its
// state is released.
func TestSessionTTLEviction(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{SessionTTL: 50 * time.Millisecond, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	if resp, data := postIngest(t, ts.URL, "session=ttl", "a,b,0\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, data)
	}
	time.Sleep(120 * time.Millisecond)
	if resp, _ := postForecast(t, ts.URL, ForecastRequest{Session: "ttl", T: 2}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session still serves: %d", resp.StatusCode)
	}
}

// TestSessionCapacity: MaxSessions bounds live sessions; fresh (unexpired)
// sessions are not evicted for newcomers.
func TestSessionCapacity(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{MaxSessions: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	if resp, data := postIngest(t, ts.URL, "session=one", "a,b,0\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first session: %d %s", resp.StatusCode, data)
	}
	if resp, _ := postIngest(t, ts.URL, "session=two", "a,b,0\n"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity session: status %d, want 429", resp.StatusCode)
	}
	// The existing session still works.
	if resp, _ := postIngest(t, ts.URL, "session=one", "b,a,1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("existing session broken by capacity rejection: %d", resp.StatusCode)
	}
}

// TestSessionLeakBalance is the serving-layer leak test: a complete
// ingest→forecast→delete lifecycle — and a cancelled streaming forecast —
// leave the tensor arena exactly balanced.
func TestSessionLeakBalance(t *testing.T) {
	_, ts := newTestServer(t)
	stream := edgeStreamCSV(t, 3)

	lifecycle := func(name string, cancelStream bool) {
		t.Helper()
		if resp, data := postIngest(t, ts.URL, "session="+name, stream); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d %s", resp.StatusCode, data)
		}
		// Leave a half-built window behind (flush=false): its pooled
		// attribute buffer must be recycled by the session teardown.
		if resp, data := postIngest(t, ts.URL, "session="+name+"&flush=false", "n0,n1,3\n"); resp.StatusCode != http.StatusOK {
			t.Fatalf("pending ingest: %d %s", resp.StatusCode, data)
		} else {
			var ing IngestResponse
			json.Unmarshal(data, &ing)
			if !ing.Pending {
				t.Fatal("flush=false ingest did not report a pending window")
			}
		}
		seed := int64(7)
		horizon := 5
		if cancelStream {
			horizon = 200
		}
		// The streaming endpoint is the one with the recycle-everything
		// contract; the unary endpoint's collected sequence intentionally
		// escapes to the response (and the GC), so it is not get/put-neutral.
		body, _ := json.Marshal(ForecastRequest{Session: name, T: horizon, Seed: &seed})
		resp, err := http.Post(ts.URL+"/v1/forecast/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if cancelStream {
			// Read one line, then drop the connection mid-stream.
			br := bufio.NewReader(resp.Body)
			br.ReadString('\n')
			resp.Body.Close()
		} else {
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("drain stream: %v", err)
			}
			resp.Body.Close()
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/ingest?session="+name, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("delete: %d", dresp.StatusCode)
		}
	}

	lifecycle("warm", false) // warm-up: one-time allocations settle

	before := tensor.ReadPoolStats()
	lifecycle("complete", false)
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("completed session leaked: %d gets vs %d puts", gets, puts)
	}

	before = tensor.ReadPoolStats()
	lifecycle("cancelled", true)
	// The aborted stream's worker may still be unwinding after the client
	// socket closes; wait for the counters to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after = tensor.ReadPoolStats()
		if after.Gets-before.Gets == after.Puts-before.Puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled session leaked: %d gets vs %d puts",
				after.Gets-before.Gets, after.Puts-before.Puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
