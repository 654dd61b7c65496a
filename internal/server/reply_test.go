package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vrdag/internal/core"
	"vrdag/internal/dyngraph"
)

// encodeReference is how every reply was encoded before sequences were
// appended by hand: the whole value through encoding/json, HTML
// characters unescaped, one trailing newline.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return buf.Bytes()
}

// elapsedOf reads elapsed_ms back from a reply, the one member that is
// not a function of the request.
func elapsedOf(t *testing.T, body []byte) float64 {
	t.Helper()
	var v struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode reply: %v (%.200s)", err, body)
	}
	return v.ElapsedMS
}

// TestUnaryRepliesMatchEncodingJSON: the /v1/generate and /v1/forecast
// bodies, whose sequence is appended after an encoding/json envelope, are
// byte for byte what encoding/json writes for the whole response struct
// holding the same seed's sequence.
func TestUnaryRepliesMatchEncodingJSON(t *testing.T) {
	s, ts := newTestServer(t)
	m, _ := trainedModel(t)
	seed := int64(17)
	opts := func() core.GenOptions {
		return core.GenOptions{T: 4, Source: rand.NewSource(seed), Parallel: true}
	}

	resp, body := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 4, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d: %s", resp.StatusCode, body)
	}
	seq, err := m.GenerateCtx(context.Background(), opts())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeReference(t, GenerateResponse{Model: "email", Seed: seed, ElapsedMS: elapsedOf(t, body), Sequence: seq})
	if !bytes.Equal(body, want) {
		t.Fatalf("generate reply differs from encoding/json's:\n got %.300s\nwant %.300s", body, want)
	}

	if resp, data := postIngest(t, ts.URL, "session=bytes", edgeStreamCSV(t, 3)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, data)
	}
	resp, body = postForecast(t, ts.URL, ForecastRequest{Session: "bytes", T: 4, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast: status %d: %s", resp.StatusCode, body)
	}
	fs, err := s.lookupSession("bytes")
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.RLock()
	steps := fs.state.Steps()
	seq, err = m.Forecast(context.Background(), fs.state, opts())
	fs.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	want = encodeReference(t, ForecastResponse{
		Session: "bytes", Model: "email", Seed: seed, Steps: steps,
		ElapsedMS: elapsedOf(t, body), Sequence: seq,
	})
	if !bytes.Equal(body, want) {
		t.Fatalf("forecast reply differs from encoding/json's:\n got %.300s\nwant %.300s", body, want)
	}
}

// TestStreamLinesMatchEncodingJSON: every snapshot line of
// /v1/generate/stream is encoding/json's encoding of the StreamSnapshot
// holding that snapshot.
func TestStreamLinesMatchEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t)
	m, _ := trainedModel(t)
	seed := int64(23)
	var want [][]byte
	err := m.GenerateStream(context.Background(), core.GenOptions{T: 5, Source: rand.NewSource(seed), Parallel: true},
		func(snap *dyngraph.Snapshot) error {
			line := StreamSnapshot{T: len(want), Edges: snap.Edges()}
			for i := 0; snap.X != nil && i < snap.N; i++ {
				line.X = append(line.X, snap.X.Row(i))
			}
			want = append(want, encodeReference(t, line))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(GenerateRequest{Model: "email", T: 5, Seed: &seed})
	resp, err := http.Post(ts.URL+"/v1/generate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var got [][]byte
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"edges"`)) {
			got = append(got, append(append([]byte(nil), sc.Bytes()...), '\n'))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream carried %d snapshot lines, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("line %d differs from encoding/json's:\n got %.300s\nwant %.300s", i, got[i], want[i])
		}
	}
}

// nanSnapshot is a two-node snapshot with one edge whose attributes hold
// a NaN, which has no JSON form.
func nanSnapshot() *dyngraph.Snapshot {
	snap := dyngraph.NewSnapshot(2, 2)
	snap.AddEdge(0, 1)
	snap.X.Data[3] = math.NaN()
	return snap
}

// TestNonFiniteSequenceReplies: a sequence holding NaN is a 500 with the
// encoding-failure body on the unary path, never a 200 cut short, and the
// error trailer after the lines already sent on a stream.
func TestNonFiniteSequenceReplies(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/forecast", nil)

	seq := dyngraph.NewSequence(2, 2, 2)
	seq.Snapshots[1] = nanSnapshot()
	rec := httptest.NewRecorder()
	s.writeSequenceReply(rec, req, ForecastResponse{Session: "s", Model: "email"}, seq)
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"response encoding failed"}`+"\n" {
		t.Fatalf("NaN sequence: status %d body %q, want 500 and the encoding-failure body", rec.Code, rec.Body.String())
	}

	entry, err := s.lookup("email")
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.streamSnapshots(rec, req, entry, StreamHeader{Model: "email", N: 2, F: 2, T: 3},
		func(yield func(*dyngraph.Snapshot) error) error {
			if err := yield(dyngraph.NewSnapshot(2, 2)); err != nil {
				return err
			}
			if err := yield(nanSnapshot()); err != nil {
				return err
			}
			return errors.New("yield accepted a NaN snapshot")
		})
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 3 || lines[1] != `{"t":0,"edges":[],"x":[[0,0],[0,0]]}` {
		t.Fatalf("stream = %q, want header, one snapshot line, trailer", lines)
	}
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(lines[2]), &trailer); err != nil {
		t.Fatalf("decode trailer: %v", err)
	}
	if trailer.Done || trailer.Emitted != 1 || !strings.Contains(trailer.Error, "NaN") {
		t.Fatalf("trailer = %+v, want an error naming the NaN after 1 line", trailer)
	}
}
