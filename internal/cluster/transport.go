package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// FaultTransport is the network-layer sibling of durable.FaultFS: an
// http.RoundTripper wrapper that injects the failures a real cluster sees
// — dropped connections, partitions, latency, duplicated deliveries, and
// replication streams torn mid-body — keyed by destination host. The chaos
// matrix in cluster_test drives every routing and replication path through
// it; production never constructs one.
type FaultTransport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	rules map[string]*FaultRule // keyed by dst URL.Host
}

// FaultRule describes the faults applied to requests toward one host.
// Sticky faults (Partition, Delay) persist until Heal; one-shot faults
// (DropNext, DuplicateNext, TearBodyAfter) consume themselves.
type FaultRule struct {
	// Partition fails every request to the host until healed, as a
	// severed link would.
	Partition bool
	// DropNext fails the next N requests, then clears.
	DropNext int
	// Delay sleeps before each request is forwarded.
	Delay time.Duration
	// DuplicateNext delivers the next request twice (second delivery's
	// response is discarded), then clears. Requires req.GetBody.
	DuplicateNext bool
	// TearBodyAfter, when >= 0, delivers only the first N bytes of the
	// next request body and then reports a connection error to the
	// caller: the receiver sees a truncated stream, the sender sees a
	// failed send. SetRule treats the zero value as "no tear" so rule
	// literals stay safe; arm a tear at byte 0 with Tear(host, 0).
	TearBodyAfter int

	torn bool // TearBodyAfter consumed
}

// ErrInjected is the error returned for dropped or partitioned requests.
// The router treats it like a refused connection: the request never
// reached the peer, so a retry cannot double-apply.
var ErrInjected = errors.New("cluster: injected network fault")

// NewFaultTransport wraps inner (http.DefaultTransport if nil).
func NewFaultTransport(inner http.RoundTripper) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner, rules: make(map[string]*FaultRule)}
}

// SetRule installs (replacing) the fault rule for host. The zero value of
// TearBodyAfter is normalized to -1 (no tear) so a literal like
// FaultRule{Partition: true} does not silently arm a tear at byte 0; use
// Tear(host, 0) for that.
func (t *FaultTransport) SetRule(host string, r FaultRule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.TearBodyAfter == 0 {
		r.TearBodyAfter = -1
	}
	t.rules[host] = &r
}

// Tear arms a one-shot body tear after n bytes toward host, preserving
// the host's other sticky faults.
func (t *FaultTransport) Tear(host string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rules[host]
	if r == nil {
		r = &FaultRule{}
		t.rules[host] = r
	}
	r.TearBodyAfter = n
	r.torn = false
}

// Heal clears every fault toward host.
func (t *FaultTransport) Heal(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rules, host)
}

// take snapshots the actions to apply to one request and consumes the
// one-shot faults under the lock.
type faultActions struct {
	delay     time.Duration
	drop      bool
	duplicate bool
	tearAt    int // -1 = no tear
}

// hasBody gates the body-oriented one-shots (tear, duplicate): health
// probes share the transport with replication, and a body-less GET must
// not consume a fault armed for the next replicated ingest.
func (t *FaultTransport) take(host string, hasBody bool) faultActions {
	a := faultActions{tearAt: -1}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rules[host]
	if !ok {
		return a
	}
	a.delay = r.Delay
	if r.Partition {
		a.drop = true
		return a
	}
	if r.DropNext > 0 {
		r.DropNext--
		a.drop = true
		return a
	}
	if hasBody && r.TearBodyAfter >= 0 && !r.torn {
		r.torn = true
		a.tearAt = r.TearBodyAfter
	}
	if hasBody && r.DuplicateNext {
		r.DuplicateNext = false
		a.duplicate = true
	}
	return a
}

// RoundTrip applies the host's faults: delay first (even a partitioned
// link burns the latency), then drop/partition, then tear, then duplicate.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	a := t.take(req.URL.Host, req.Body != nil)
	if a.delay > 0 {
		timer := time.NewTimer(a.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	if a.drop {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: dropped request to %s", ErrInjected, req.URL.Host)
	}
	if a.tearAt >= 0 {
		return t.tear(req, a.tearAt)
	}
	if a.duplicate && req.GetBody != nil {
		// First delivery: a clone whose response is discarded, simulating
		// the network delivering the same request twice.
		body, err := req.GetBody()
		if err == nil {
			dup := req.Clone(req.Context())
			dup.Body = body
			if resp, err := t.inner.RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	return t.inner.RoundTrip(req)
}

// tear delivers only the first n body bytes, then reports a send failure.
// The receiver's handler reads a stream that ends early — exactly what a
// connection reset mid-upload looks like — and must detect the truncation
// (vrdag replication does so via a body checksum header) rather than fold
// a partial ingest.
func (t *FaultTransport) tear(req *http.Request, n int) (*http.Response, error) {
	var prefix []byte
	if req.Body != nil {
		full, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: tear read: %v", ErrInjected, err)
		}
		if n > len(full) {
			n = len(full)
		}
		prefix = full[:n]
	}
	torn := req.Clone(req.Context())
	torn.Body = io.NopCloser(bytes.NewReader(prefix))
	torn.ContentLength = int64(len(prefix))
	torn.GetBody = nil
	// Strip Content-Length so the receiver cannot reject on a trivial
	// length mismatch; a real torn chunked upload carries no length.
	torn.Header = req.Header.Clone()
	torn.Header.Del("Content-Length")
	torn.TransferEncoding = []string{"chunked"}
	if resp, err := t.inner.RoundTrip(torn); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil, fmt.Errorf("%w: tore body after %d bytes to %s", ErrInjected, n, req.URL.Host)
}
