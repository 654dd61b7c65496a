package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vrdag/internal/tensor"
)

// TestSweepRacesForecastStream pins the contract between the TTL sweeper
// and an in-flight /v1/forecast/stream: the stream holds the session's
// read lock for its whole emission, so an eviction (non-durable) or spill
// (durable) that fires mid-stream must wait, let the stream finish to its
// done-trailer, and still leave the tensor arena get/put balanced.
func TestSweepRacesForecastStream(t *testing.T) {
	t.Run("evict", func(t *testing.T) { runSweepStreamRace(t, false) })
	t.Run("spill", func(t *testing.T) { runSweepStreamRace(t, true) })
}

func runSweepStreamRace(t *testing.T, durable bool) {
	m, ref := trainedModel(t)
	cfg := Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if durable {
		cfg.DataDir = t.TempDir()
	}
	s := New(cfg)
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	deleteSession := func(name string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/ingest?session="+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// lifecycle ingests a session, streams a forecast while a far-future
	// sweep fires mid-stream, asserts the stream's clean completion, and
	// tears the session down.
	lifecycle := func(name string) {
		t.Helper()
		if resp, data := postIngest(t, ts.URL, "session="+name, edgeStreamCSV(t, 3)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d %s", resp.StatusCode, data)
		}
		seed := int64(21)
		const horizon = 96
		body, _ := json.Marshal(ForecastRequest{Session: name, T: horizon, Seed: &seed})
		resp, err := http.Post(ts.URL+"/v1/forecast/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("start stream: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil { // header line: stream is live
			t.Fatalf("read stream header: %v", err)
		}

		// Fire the sweep mid-stream. The idle test uses a far-future now, so
		// the session is past its TTL from the sweeper's point of view; the
		// sweep must block on the stream's read lock, not break the stream.
		sweepDone := make(chan struct{})
		go func() {
			defer close(sweepDone)
			s.sweepSessions(time.Now().Add(s.cfg.SessionTTL + time.Hour))
		}()
		time.Sleep(50 * time.Millisecond) // let the sweep reach the lock

		var lastLine string
		lines := 0
		for {
			line, err := br.ReadString('\n')
			if len(line) > 0 {
				lastLine = line
				lines++
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("stream broke mid-race after %d lines: %v", lines, err)
			}
		}
		var trailer StreamTrailer
		if err := json.Unmarshal([]byte(lastLine), &trailer); err != nil {
			t.Fatalf("trailer line %q: %v", lastLine, err)
		}
		if !trailer.Done || trailer.Emitted != horizon || trailer.Error != "" {
			t.Fatalf("stream did not finish cleanly under the sweep: %+v", trailer)
		}
		<-sweepDone

		// Post-sweep session state: evicted (non-durable) or spilled but
		// transparently reloadable (durable). The check streams rather than
		// using the unary endpoint — the unary response's sequence escapes
		// to the GC by design, which would break the get/put balance below.
		fbody, _ := json.Marshal(ForecastRequest{Session: name, T: 2, Seed: &seed})
		fresp, err := http.Post(ts.URL+"/v1/forecast/stream", "application/json", bytes.NewReader(fbody))
		if err != nil {
			t.Fatalf("post-sweep forecast: %v", err)
		}
		io.Copy(io.Discard, fresp.Body)
		fresp.Body.Close()
		if durable {
			if fresp.StatusCode != http.StatusOK {
				t.Fatalf("spilled session must reload on forecast, got status %d", fresp.StatusCode)
			}
			deleteSession(name)
		} else if fresp.StatusCode == http.StatusOK {
			t.Fatal("evicted session still answered a forecast")
		}
	}

	lifecycle("warm-" + map[bool]string{false: "m", true: "d"}[durable]) // one-time allocations settle

	before := tensor.ReadPoolStats()
	lifecycle("raced")
	// The sweep's release may still be unwinding; wait for balance.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := tensor.ReadPoolStats()
		if after.Gets-before.Gets == after.Puts-before.Puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep/stream race leaked pooled buffers: %d gets vs %d puts",
				after.Gets-before.Gets, after.Puts-before.Puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
