package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/server"
)

// Example shows the full serving path end to end: train a model, register
// it, and hit the HTTP API — health check, model listing, then a seeded
// generation request.
func Example() {
	// Train a small model on a synthetic replica.
	g := datasets.Generate(datasets.Config{
		Name: "demo", N: 20, T: 5, F: 0, EdgesPerStep: 30, Seed: 1,
	})
	cfg := core.DefaultConfig(g.N, g.F)
	cfg.Epochs = 2
	m := core.New(cfg)
	if _, err := m.Fit(g); err != nil {
		fmt.Println("fit failed:", err)
		return
	}

	// Stand the service up and register the model.
	s := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	if err := s.Register("demo", m, nil); err != nil {
		fmt.Println("register failed:", err)
		return
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// GET /healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		fmt.Println("healthz:", err)
		return
	}
	var health server.HealthResponse
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	fmt.Println("health:", health.Status, "models:", health.Models)

	// GET /v1/models
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		fmt.Println("models:", err)
		return
	}
	var infos []server.ModelInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	fmt.Println("model:", infos[0].Name, "trained:", infos[0].Trained)

	// POST /v1/generate with a pinned seed for reproducibility.
	body, _ := json.Marshal(map[string]any{"model": "demo", "t": 3, "seed": 42})
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	var out struct {
		Seed     int64              `json:"seed"`
		Sequence *dyngraph.Sequence `json:"sequence"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	fmt.Println("status:", resp.StatusCode, "seed:", out.Seed)
	fmt.Println("snapshots:", out.Sequence.T(), "valid:", out.Sequence.Validate() == nil)
	// Output:
	// health: ok models: 1
	// model: demo trained: true
	// status: 200 seed: 42
	// snapshots: 3 valid: true
}
