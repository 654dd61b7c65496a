package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postStream POSTs to /v1/generate/stream and returns the parsed NDJSON
// lines: header, snapshots, trailer.
func postStream(t *testing.T, url string, req GenerateRequest) (StreamHeader, []StreamSnapshot, StreamTrailer) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/generate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/generate/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		header  StreamHeader
		snaps   []StreamSnapshot
		trailer StreamTrailer
		lineNo  int
		sawEnd  bool
	)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case lineNo == 0:
			if err := json.Unmarshal(line, &header); err != nil {
				t.Fatalf("decode header: %v (%s)", err, line)
			}
		case bytes.Contains(line, []byte(`"edges"`)):
			var s StreamSnapshot
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatalf("decode snapshot line %d: %v", lineNo, err)
			}
			snaps = append(snaps, s)
		default:
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("decode trailer: %v (%s)", err, line)
			}
			sawEnd = true
		}
		lineNo++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if !sawEnd {
		t.Fatal("stream ended without a trailer line")
	}
	return header, snaps, trailer
}

// TestStreamEndpointMatchesUnary is the end-to-end golden test: for the
// same seed the NDJSON stream must carry exactly the sequence the unary
// endpoint returns — same edges, bit-equal attribute values after one
// JSON round-trip each.
func TestStreamEndpointMatchesUnary(t *testing.T) {
	_, ts := newTestServer(t)
	seed := int64(4242)

	resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 5, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unary status %d: %s", resp.StatusCode, data)
	}
	var unary GenerateResponse
	if err := json.Unmarshal(data, &unary); err != nil {
		t.Fatalf("decode unary: %v", err)
	}

	header, snaps, trailer := postStream(t, ts.URL, GenerateRequest{Model: "email", T: 5, Seed: &seed})
	if header.Model != "email" || header.Seed != seed || header.N != 24 || header.F != 2 || header.T != 5 {
		t.Fatalf("bad header: %+v", header)
	}
	if !trailer.Done || trailer.Emitted != 5 || trailer.Error != "" || trailer.Truncated != "" {
		t.Fatalf("bad trailer: %+v", trailer)
	}
	if len(snaps) != unary.Sequence.T() {
		t.Fatalf("stream carried %d snapshots, unary %d", len(snaps), unary.Sequence.T())
	}
	for i, line := range snaps {
		if line.T != i {
			t.Fatalf("line %d has t=%d", i, line.T)
		}
		want := unary.Sequence.At(i)
		wantEdges := want.Edges()
		if len(line.Edges) != len(wantEdges) {
			t.Fatalf("snapshot %d: %d edges streamed, %d unary", i, len(line.Edges), len(wantEdges))
		}
		for k := range wantEdges {
			if line.Edges[k] != wantEdges[k] {
				t.Fatalf("snapshot %d edge %d: %v vs %v", i, k, line.Edges[k], wantEdges[k])
			}
		}
		for r := 0; r < header.N; r++ {
			for c := 0; c < header.F; c++ {
				if line.X[r][c] != want.X.At(r, c) {
					t.Fatalf("snapshot %d attr (%d,%d): %v vs %v", i, r, c, line.X[r][c], want.X.At(r, c))
				}
			}
		}
	}
}

// TestStreamConcurrentDeterministic hammers the streaming endpoint from
// many goroutines sharing one trained model (the -race CI job runs this
// package): same-seed streams must agree line for line.
func TestStreamConcurrentDeterministic(t *testing.T) {
	_, ts := newTestServer(t)
	const parallel = 8
	type result struct {
		idx   int
		snaps []StreamSnapshot
	}
	results := make(chan result, 2*parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				seed := int64(500 + i)
				_, snaps, trailer := postStream(t, ts.URL, GenerateRequest{Model: "email", T: 3, Seed: &seed})
				if !trailer.Done {
					t.Errorf("stream %d incomplete: %+v", i, trailer)
					return
				}
				results <- result{idx: i, snaps: snaps}
			}(i)
		}
	}
	wg.Wait()
	close(results)
	bySeed := map[int][]StreamSnapshot{}
	for r := range results {
		prev, ok := bySeed[r.idx]
		if !ok {
			bySeed[r.idx] = r.snaps
			continue
		}
		a, _ := json.Marshal(prev)
		b, _ := json.Marshal(r.snaps)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: concurrent streams disagree", r.idx)
		}
	}
	if len(bySeed) != parallel {
		t.Fatalf("got %d seeds, want %d", len(bySeed), parallel)
	}
}

// TestStreamClientDisconnect cancels the request context mid-stream and
// verifies the server survives it: the generation loop aborts (covered in
// depth by the core leak tests) and the next request is served normally.
func TestStreamClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t)
	seed := int64(7)
	body, _ := json.Marshal(GenerateRequest{Model: "email", T: 64, Seed: &seed})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate/stream", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read one line, then hang up mid-sequence.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read header: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The server must keep serving afterwards.
	resp2, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect: status %d: %s", resp2.StatusCode, data)
	}
}

// TestAdmissionQueueOverflow fills the admission queue directly (the
// tests live in the package) and checks the 429 + Retry-After contract.
func TestAdmissionQueueOverflow(t *testing.T) {
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

	seed := int64(1)
	resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "admission") {
		t.Errorf("unexpected 429 body: %s", data)
	}
}

// TestDrainRejectsAndReportsHealth verifies BeginDrain: generation
// endpoints shed with 503 while /healthz keeps answering and reports the
// draining state.
func TestDrainRejectsAndReportsHealth(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.BeginDrain()
	seed := int64(1)
	resp, _ := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generate while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil || !h.Draining {
		t.Fatalf("healthz while draining: %+v (err %v)", h, err)
	}
}

// TestStreamDrainTruncates starts a long stream, flips the server into
// draining mode after the first snapshot line, and expects a graceful
// in-band truncation trailer rather than a cut connection.
func TestStreamDrainTruncates(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	seed := int64(3)
	body, _ := json.Marshal(GenerateRequest{Model: "email", T: 256, Seed: &seed})
	resp, err := http.Post(ts.URL+"/v1/generate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() { // header
		t.Fatalf("no header: %v", sc.Err())
	}
	if !sc.Scan() { // first snapshot
		t.Fatalf("no first snapshot: %v", sc.Err())
	}
	s.BeginDrain()
	var trailer StreamTrailer
	lines := 1
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"edges"`)) {
			lines++
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatalf("decode trailer: %v (%s)", err, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if trailer.Emitted != lines {
		t.Fatalf("trailer says %d emitted, saw %d lines", trailer.Emitted, lines)
	}
	// The model is fast, so the stream may complete before the drain
	// signal lands; both outcomes must end in a well-formed trailer.
	if !trailer.Done && trailer.Truncated != "server draining" {
		t.Fatalf("truncated trailer without drain reason: %+v", trailer)
	}
	if trailer.Done && trailer.Emitted != 256 {
		t.Fatalf("done trailer with %d/256 emitted", trailer.Emitted)
	}
}

// TestMetricsReportsEndpointStats checks that a scrape carries the
// per-endpoint counters and a latency histogram whose +Inf bucket equals
// the request count.
func TestMetricsReportsEndpointStats(t *testing.T) {
	_, ts := newTestServer(t)
	seed := int64(2)
	for i := 0; i < 3; i++ {
		if resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &seed}); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	text := scrape(t, ts.URL)
	const path = `path="/v1/generate"`
	count := promSample(t, text, "vrdag_http_request_duration_ms_count", path)
	if count < 3 {
		t.Fatalf("generate _count = %v, want >= 3", count)
	}
	if requests := promSample(t, text, "vrdag_http_requests_total", path); requests != count {
		t.Fatalf("requests_total %v, histogram _count %v", requests, count)
	}
	if inf := promSample(t, text, "vrdag_http_request_duration_ms_bucket", path, `le="+Inf"`); inf != count {
		t.Fatalf("+Inf bucket %v, _count %v", inf, count)
	}
}
