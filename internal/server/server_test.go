package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
)

// testModel trains one small attributed model per process and shares it:
// models are read-only after training, so tests (and their concurrent
// requests) can all sample from the same instance.
var (
	testOnce  sync.Once
	testM     *core.Model
	testRef   *dyngraph.Sequence
	testErr   error
	testCheck bytes.Buffer
)

func trainedModel(t testing.TB) (*core.Model, *dyngraph.Sequence) {
	t.Helper()
	testOnce.Do(func() {
		testRef = datasets.Generate(datasets.Config{
			Name: "t", N: 24, T: 6, F: 2, EdgesPerStep: 40, Communities: 2, Seed: 3,
		})
		cfg := core.DefaultConfig(testRef.N, testRef.F)
		cfg.Epochs = 2
		cfg.Seed = 3
		testM = core.New(cfg)
		if _, testErr = testM.Fit(testRef); testErr != nil {
			return
		}
		testErr = testM.Save(&testCheck)
	})
	if testErr != nil {
		t.Fatalf("shared model setup: %v", testErr)
	}
	return testM, testRef
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	m, ref := trainedModel(t)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postGenerate(t *testing.T, url string, req GenerateRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/generate: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestGenerateReturnsValidSequence(t *testing.T) {
	_, ts := newTestServer(t)
	seed := int64(42)
	resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 4, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out GenerateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Model != "email" || out.Seed != 42 {
		t.Fatalf("echo fields wrong: %+v", out)
	}
	if out.Sequence == nil || out.Sequence.T() != 4 || out.Sequence.N != 24 || out.Sequence.F != 2 {
		t.Fatalf("bad sequence shape: %+v", out.Sequence)
	}
	if err := out.Sequence.Validate(); err != nil {
		t.Fatalf("generated sequence invalid: %v", err)
	}
	if out.Sequence.TotalTemporalEdges() == 0 {
		t.Fatal("generated sequence has no edges")
	}
}

func TestGenerateOmittedSeedIsReported(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out GenerateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Reproducibility contract: replaying the reported seed must give the
	// same sequence.
	resp2, data2 := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 2, Seed: &out.Seed})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d", resp2.StatusCode)
	}
	var out2 GenerateResponse
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatalf("decode replay: %v", err)
	}
	assertSameSequence(t, out.Sequence, out2.Sequence)
}

func TestGenerateConcurrentRequestsDeterministic(t *testing.T) {
	_, ts := newTestServer(t)
	const parallel = 12
	type result struct {
		idx int
		seq *dyngraph.Sequence
	}
	results := make(chan result, 2*parallel)
	var wg sync.WaitGroup
	// Two requests per seed, all in flight at once: same-seed pairs must
	// agree even under concurrent sampling from the shared model.
	for i := 0; i < parallel; i++ {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				seed := int64(100 + i)
				resp, data := postGenerate(t, ts.URL, GenerateRequest{Model: "email", T: 3, Seed: &seed})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				var out GenerateResponse
				if err := json.Unmarshal(data, &out); err != nil {
					t.Errorf("request %d: decode: %v", i, err)
					return
				}
				results <- result{idx: i, seq: out.Sequence}
			}(i)
		}
	}
	wg.Wait()
	close(results)
	bySeed := map[int]*dyngraph.Sequence{}
	for r := range results {
		if prev, ok := bySeed[r.idx]; ok {
			assertSameSequence(t, prev, r.seq)
		} else {
			bySeed[r.idx] = r.seq
		}
	}
	if len(bySeed) != parallel {
		t.Fatalf("got results for %d seeds, want %d", len(bySeed), parallel)
	}
}

func TestGenerateErrors(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		name string
		req  GenerateRequest
		want int
	}{
		{"unknown model", GenerateRequest{Model: "nope", T: 2}, http.StatusNotFound},
		{"zero t", GenerateRequest{Model: "email", T: 0}, http.StatusBadRequest},
		{"t too large", GenerateRequest{Model: "email", T: s.cfg.MaxT + 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := postGenerate(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not an error body: %s", c.name, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate: status %d, want 405", resp.StatusCode)
	}
}

func TestModelsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode models: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "email" || !infos[0].Trained {
		t.Fatalf("bad model list: %+v", infos)
	}
	if infos[0].N != 24 || infos[0].F != 2 || infos[0].Params <= 0 {
		t.Fatalf("bad model info: %+v", infos[0])
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" || h.Models != 1 || h.Workers <= 0 {
		t.Fatalf("bad health: %+v (err %v)", h, err)
	}
}

func TestRegisterValidation(t *testing.T) {
	m, ref := trainedModel(t)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	if err := s.Register("", m, nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register("x", core.New(core.DefaultConfig(4, 0)), nil); err == nil {
		t.Error("untrained model accepted")
	}
	if err := s.Register("x", m, ref); err != nil {
		t.Errorf("valid registration failed: %v", err)
	}
	if err := s.Register("x", m, ref); err == nil {
		t.Error("duplicate name accepted")
	}
}

func assertSameSequence(t *testing.T, a, b *dyngraph.Sequence) {
	t.Helper()
	if a.N != b.N || a.F != b.F || a.T() != b.T() {
		t.Fatalf("shape mismatch: (%d,%d,%d) vs (%d,%d,%d)", a.N, a.F, a.T(), b.N, b.F, b.T())
	}
	for tt := 0; tt < a.T(); tt++ {
		sa, sb := a.At(tt), b.At(tt)
		ea, eb := sa.Edges(), sb.Edges()
		if fmt.Sprint(ea) != fmt.Sprint(eb) {
			t.Fatalf("snapshot %d: edge sets differ", tt)
		}
		if a.F > 0 {
			for i := range sa.X.Data {
				if sa.X.Data[i] != sb.X.Data[i] {
					t.Fatalf("snapshot %d: attributes differ at %d", tt, i)
				}
			}
		}
	}
}
