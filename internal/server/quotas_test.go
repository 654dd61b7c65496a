package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// newQuotaServer runs a server with a tiny refill rate, so each tenant's
// burst is one request, exhausts deterministically, and stays exhausted for
// the test's duration.
func newQuotaServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	m, ref := trainedModel(t)
	s := New(Config{
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		QuotaRate: 0.001,
	})
	if err := s.Register("email", m, ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// ingestAs posts a one-edge ingest billed to tenant ("" sends no header).
// step keeps the session's time column monotonic across requests.
func ingestAs(t *testing.T, url, tenant, sess string, step int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest?session="+sess,
		strings.NewReader(fmt.Sprintf("src,dst,t\nn0,n1,%d\n", step)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	if tenant != "" {
		req.Header.Set(HeaderTenant, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("ingest as %q: %v", tenant, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestQuotaBurstFromRate pins the burst to max(1, ceil(QuotaRate)): a
// fresh bucket admits exactly that many requests at one instant.
func TestQuotaBurstFromRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{{0.001, 1}, {1, 1}, {2.0005, 3}, {2.5, 3}} {
		var b tenantBucket
		now := time.Now()
		admitted := 0
		for {
			if ok, _ := b.take(now, tc.rate, quotaBurst(tc.rate)); !ok {
				break
			}
			admitted++
		}
		if admitted != tc.want {
			t.Errorf("rate %g: a fresh bucket admitted %d, want %d", tc.rate, admitted, tc.want)
		}
	}
}

func TestQuotaExhaustionIsPerTenant(t *testing.T) {
	_, ts := newQuotaServer(t)

	if resp := ingestAs(t, ts.URL, "alice", "qa", 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice request inside burst: status %d", resp.StatusCode)
	}
	shed := ingestAs(t, ts.URL, "alice", "qa", 1)
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: status %d, want 429", shed.StatusCode)
	}
	// Retry-After must be a parseable jittered integer in [base, 2*base]
	// where base ≈ 1/rate seconds for an empty bucket.
	ra, err := strconv.Atoi(shed.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", shed.Header.Get("Retry-After"), err)
	}
	if ra < 900 || ra > 2200 {
		t.Fatalf("Retry-After %d outside the jittered [base, 2*base] window for rate 0.001", ra)
	}

	// Alice's exhaustion must not touch other tenants — including the
	// implicit default tenant.
	if resp := ingestAs(t, ts.URL, "bob", "qb", 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob while alice throttled: status %d", resp.StatusCode)
	}
	if resp := ingestAs(t, ts.URL, "", "qd", 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant while alice throttled: status %d", resp.StatusCode)
	}
}

func TestQuotaCountersOnMetrics(t *testing.T) {
	_, ts := newQuotaServer(t)
	for i := 0; i < 4; i++ {
		ingestAs(t, ts.URL, "alice", "qm", i)
	}
	ingestAs(t, ts.URL, "bob", "qm2", 0)

	// The scrape is not admitted work: it names no tenant and spends no token.
	text := scrape(t, ts.URL)
	for _, c := range []struct {
		tenant              string
		admitted, throttled float64
	}{{"alice", 1, 3}, {"bob", 1, 0}} {
		label := `tenant="` + c.tenant + `"`
		admitted := promSample(t, text, "vrdag_tenant_admitted_total", label)
		throttled := promSample(t, text, "vrdag_tenant_throttled_total", label)
		if admitted != c.admitted || throttled != c.throttled {
			t.Fatalf("%s: %v admitted / %v throttled, want %v / %v", c.tenant, admitted, throttled, c.admitted, c.throttled)
		}
	}
	if strings.Contains(text, `tenant="ops"`) || strings.Contains(text, `tenant="default"`) {
		t.Fatal("scraping /metrics was billed to a tenant")
	}
}

func TestQuotaReplicaTrafficBypasses(t *testing.T) {
	_, ts := newQuotaServer(t)
	ingestAs(t, ts.URL, "carol", "qr", 0)
	if resp := ingestAs(t, ts.URL, "carol", "qr", 1); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("carol over burst: status %d, want 429", resp.StatusCode)
	}

	// A replica apply for the same tenant must not be throttled: the quota
	// was charged where the client's request was admitted, and shedding
	// replication would break another node's durability guarantee.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?session=qr",
		strings.NewReader("src,dst,t\nn0,n2,5\n"))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(HeaderTenant, "carol")
	req.Header.Set(HeaderReplica, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica apply throttled: status %d", resp.StatusCode)
	}
}

func TestRetryAfterJitterStaysInRange(t *testing.T) {
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(s.Close)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := s.retryAfterJitter(5, 10)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("jitter %q not an integer", v)
		}
		if n < 5 || n > 15 {
			t.Fatalf("jitter %d outside [5,15]", n)
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Fatalf("200 draws produced only %d distinct values — not jittered", len(seen))
	}
	if got := s.retryAfterJitter(7, 0); got != "7" {
		t.Fatalf("zero spread must be deterministic, got %q", got)
	}
}
