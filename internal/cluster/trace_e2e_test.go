package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// End-to-end tracing acceptance: a request entering the cluster at a
// non-owner node leaves one logical trace — keyed by the client-visible
// X-Vrdag-Trace ID — whose per-node views, merged by GET /v1/trace?id=,
// cover the whole path: admission and the work spans on the primary, the
// proxy hop on the entry node, and the replica apply on the follower.

// doTraced sends a request with a client-supplied trace ID and returns
// the client-observed wall time, checking the ID is echoed back.
func doTraced(t *testing.T, method, url, contentType, body, id string) time.Duration {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("build %s %s: %v", method, url, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(obs.Header, id)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	wall := time.Since(start)
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	if got := resp.Header.Get(obs.Header); got != id {
		t.Fatalf("%s %s: trace header %q, want %q", method, url, got, id)
	}
	return wall
}

// queryTraceByID polls GET /v1/trace?id= at baseURL until the merged
// views cover every span in want (traces publish when the handler's
// deferred Finish runs, which can trail the client's read of the
// response body).
func queryTraceByID(t *testing.T, baseURL, id string, want []string) []obs.TraceView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last []obs.TraceView
	for {
		resp, err := http.Get(baseURL + "/v1/trace?id=" + id)
		if err != nil {
			t.Fatalf("GET /v1/trace?id=%s: %v", id, err)
		}
		var out server.TraceQueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decode trace response: %v", err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		last = out.Traces
		if coversSpans(last, want) {
			return last
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never covered %v; got %v", id, want, mergedSpanNames(last))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func coversSpans(views []obs.TraceView, want []string) bool {
	seen := map[string]bool{}
	for _, v := range views {
		for _, sp := range v.Spans {
			seen[sp.Name] = true
		}
	}
	for _, w := range want {
		if !seen[w] {
			return false
		}
	}
	return len(views) > 0
}

func mergedSpanNames(views []obs.TraceView) []string {
	var out []string
	for _, v := range views {
		for _, sp := range v.Spans {
			out = append(out, fmt.Sprintf("%s/%s", v.Node, sp.Name))
		}
	}
	return out
}

// checkViewTimes asserts each view's spans sit inside its wall time and
// the wall itself fits inside the client-observed request time. sumCheck
// additionally requires span durations to sum to no more than the wall —
// valid only for traces whose spans never nest (forecast's admit +
// sequential decodes; ingest nests encode inside ingest.fold).
func checkViewTimes(t *testing.T, views []obs.TraceView, observed time.Duration, sumCheck bool) {
	t.Helper()
	for _, v := range views {
		if v.WallUS <= 0 || v.WallUS > observed.Microseconds() {
			t.Errorf("node %s: trace wall %dus outside client-observed %dus", v.Node, v.WallUS, observed.Microseconds())
		}
		var sum int64
		for _, sp := range v.Spans {
			if sp.StartUS < 0 || sp.DurUS < 0 || sp.StartUS+sp.DurUS > v.WallUS {
				t.Errorf("node %s: span %s [%d,+%d]us escapes wall %dus", v.Node, sp.Name, sp.StartUS, sp.DurUS, v.WallUS)
			}
			sum += sp.DurUS
		}
		if sumCheck && sum > v.WallUS {
			t.Errorf("node %s: span durations sum to %dus > wall %dus", v.Node, sum, v.WallUS)
		}
	}
}

func TestClusterTraceEndToEnd(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	_, ref := clusterModel(t)
	sess := "trace-e2e"
	primary, follower := c.placement(sess)
	via := c.other(primary, follower) // entry node owns nothing: forces a proxy hop

	// Ingest through the non-owner: entry node proxies to the primary,
	// which folds, seals the window (flush defaults to true), and
	// synchronously replicates to the follower — all under one trace ID.
	const ingestID = "e2e00000000000000000000000000001"
	ingestWall := doTraced(t, http.MethodPost,
		c.urls[via]+"/v1/ingest?session="+sess, "text/csv", chunkCSV(ref, 0), ingestID)

	ingestViews := queryTraceByID(t, c.urls[via], ingestID,
		[]string{"admit", "proxy", "ingest.fold", "encode", "replicate"})
	checkViewTimes(t, ingestViews, ingestWall, false)
	if len(ingestViews) < 3 {
		t.Errorf("ingest trace has %d node views, want >= 3 (entry, primary, follower): %v",
			len(ingestViews), mergedSpanNames(ingestViews))
	}

	// Forecast through the same non-owner: proxy hop plus the primary's
	// admission and per-timestep decode spans.
	const forecastID = "e2e00000000000000000000000000002"
	seed := int64(9)
	body, _ := json.Marshal(server.ForecastRequest{Session: sess, T: 4, Seed: &seed})
	forecastWall := doTraced(t, http.MethodPost,
		c.urls[via]+"/v1/forecast", "application/json", string(body), forecastID)

	forecastViews := queryTraceByID(t, c.urls[follower], forecastID,
		[]string{"admit", "proxy", "decode"})
	checkViewTimes(t, forecastViews, forecastWall, true)

	// The merged views are stamped with the recording node and ordered by
	// start time, and every view carries the client's ID.
	for i, v := range forecastViews {
		if v.ID != forecastID {
			t.Errorf("view %d: id %q, want %q", i, v.ID, forecastID)
		}
		if v.Node == "" {
			t.Errorf("view %d: missing node stamp", i)
		}
		if i > 0 && v.Start.Before(forecastViews[i-1].Start) {
			t.Errorf("views not ordered by start: %v after %v", v.Start, forecastViews[i-1].Start)
		}
	}

	// The decode work happened on the primary, not the entry node.
	for _, v := range forecastViews {
		decodes := 0
		for _, sp := range v.Spans {
			if sp.Name == "decode" {
				decodes++
			}
		}
		if v.Node == c.urls[primary] && decodes != 4 {
			t.Errorf("primary view: %d decode spans, want one per timestep (4)", decodes)
		}
		if v.Node == c.urls[via] && decodes != 0 {
			t.Errorf("entry view: %d decode spans, want 0 (work is proxied)", decodes)
		}
	}

	// An ID retained nowhere is a cluster-wide 404.
	resp, err := http.Get(c.urls[via] + "/v1/trace?id=ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatalf("GET unknown trace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
	}

	// The cluster families ride the local /metrics exposition and the
	// whole scrape stays lint-clean.
	mbody := c.scrape(primary)
	if errs := obs.Lint(strings.NewReader(mbody)); len(errs) > 0 {
		t.Errorf("cluster exposition lint: %v", errs)
	}
	for _, family := range []string{"vrdag_cluster_info", "vrdag_cluster_draining", "vrdag_cluster_replication_sent_total", "vrdag_cluster_peer_routable"} {
		if !strings.Contains(mbody, family) {
			t.Errorf("exposition missing cluster family %s", family)
		}
	}
}

// TestClusterTraceQueryEncodesID: the ID of GET /v1/trace?id= reaches each
// peer as one query value. Forwarded raw, an ID holding an encoded '&'
// split into two parameters on the peer, which then answered for the
// prefix: a trace the client never named.
func TestClusterTraceQueryEncodesID(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	const victim = "victimtraceAAAA"
	doTraced(t, http.MethodGet, c.urls[1]+"/v1/models", "", "", victim)
	queryTraceByID(t, c.urls[1], victim, nil) // retained on node 1

	resp, err := http.Get(c.urls[0] + "/v1/trace?id=" + url.QueryEscape(victim+"&n=1"))
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace %q: status %d, want 404: %s", victim+"&n=1", resp.StatusCode, data)
	}
}
