package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"syscall"
	"time"

	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// Routing: the node serves the same HTTP surface as the server it wraps.
// Session endpoints (/v1/ingest, /v1/forecast, /v1/forecast/stream) are
// routed to the session's primary — served here when this node owns the
// session, proxied with bounded retry/backoff otherwise. A request that
// arrives already forwarded is served locally, never re-proxied: that is
// the loop guard, and during failover it is exactly what makes a
// follower act as primary. Everything else (generation, metrics, models,
// health) is node-local by design.

// ServeHTTP implements http.Handler over the cluster routing layer. The
// node roots the request's trace here — before routing decides whether
// the work happens locally or on a peer — so proxy and replication hops
// land inside the same trace the local server's spans do. The local
// server sees the trace already present on the context and leaves
// ownership (Finish, the status) to this layer.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tr := obs.FromContext(r.Context()); tr == nil && server.TraceableRequest(r) {
		ctx, tr := n.local.Tracer().StartTrace(r.Context(), r.Method+" "+r.URL.Path, r.Header.Get(obs.Header))
		if tr != nil {
			r = r.WithContext(ctx)
			w.Header().Set(obs.Header, tr.ID)
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, tr: tr}
			defer func() { tr.Finish(sw.status) }()
			w = sw
		}
	}
	n.route(w, r)
}

func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(server.HeaderReplica) != "" {
		n.serveReplica(w, r)
		return
	}
	forwarded := r.Header.Get(server.HeaderForwarded) != ""
	switch {
	case r.URL.Path == "/v1/ingest" && r.Method == http.MethodPost:
		n.routeIngest(w, r, forwarded)
	case r.URL.Path == "/v1/trace" && r.Method == http.MethodGet && !forwarded && r.URL.Query().Get("id") != "":
		n.queryTrace(w, r)
	case forwarded:
		n.local.ServeHTTP(w, r)
	case r.URL.Path == "/v1/ingest" && r.Method == http.MethodGet:
		n.listSessions(w, r)
	case r.URL.Path == "/v1/ingest" && r.Method == http.MethodDelete:
		n.deleteSession(w, r)
	case r.URL.Path == "/v1/forecast" || r.URL.Path == "/v1/forecast/stream":
		n.routeForecast(w, r)
	default:
		n.local.ServeHTTP(w, r)
	}
}

// statusWriter captures the final status for the node-owned trace, and
// marks each write on it so that its wall ends where the reply's last
// write began, while forwarding Flush, keeping streaming backpressure
// intact.
type statusWriter struct {
	http.ResponseWriter
	status int
	tr     *obs.Trace
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.tr.Wrote()
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeIngest spools the body once and either serves as primary (local
// fold + replication) or proxies to the session's first reachable owner.
// A forwarded ingest is always applied here: the sender already decided
// this node is the acting primary.
func (n *Node) routeIngest(w http.ResponseWriter, r *http.Request, forwarded bool) {
	sess := r.URL.Query().Get("session")
	if sess == "" {
		n.local.ServeHTTP(w, r) // let the server produce its 400
		return
	}
	body, err := n.spoolBody(r)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		n.writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	if forwarded {
		n.servePrimaryIngest(w, r, sess, body)
		return
	}
	n.routeSession(w, r, sess, body, false)
}

// routeForecast peeks the session name out of the JSON body (restoring
// the body for whoever serves it) and routes to the session's primary.
// Forecasts are idempotent reads, so proxy retries are unrestricted.
func (n *Node) routeForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		n.local.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return // client gone mid-body; nothing to route
	}
	var peek struct {
		Session string `json:"session"`
	}
	if json.Unmarshal(body, &peek) != nil || peek.Session == "" {
		// Undecodable or sessionless body: the local server owns the
		// error response.
		r.Body = io.NopCloser(bytes.NewReader(body))
		n.local.ServeHTTP(w, r)
		return
	}
	n.routeSession(w, r, peek.Session, body, true)
}

// routeSession sends a spooled session request to the first reachable
// owner, self included, trying each (at most Replicas) once. Candidates
// come from the session's static placement filtered by liveness: a
// session whose owners are all down is refused with 503 rather than
// silently served empty by a node that never held it.
func (n *Node) routeSession(w http.ResponseWriter, r *http.Request, sess string, body []byte, idempotent bool) {
	var candidates []string
	for _, owner := range n.staticOwners(sess) {
		if n.routable(owner) {
			candidates = append(candidates, owner)
		}
	}
	if len(candidates) == 0 {
		w.Header().Set("Retry-After", "1")
		n.writeError(w, http.StatusServiceUnavailable,
			"session %q: no reachable owner (placement %v)", sess, n.staticOwners(sess))
		return
	}
	backoff := n.cfg.ProxyBackoff
	for i, target := range candidates {
		if i > 0 {
			n.proxyRetries.Add(1)
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-r.Context().Done():
				return
			}
		}
		if target == n.cfg.Self {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			if r.URL.Path == "/v1/ingest" && r.Method == http.MethodPost {
				n.servePrimaryIngest(w, r, sess, body)
			} else {
				n.local.ServeHTTP(w, r)
			}
			return
		}
		err := n.proxyTo(w, r, target, body)
		if err == nil {
			n.members.ReportSuccess(target)
			return
		}
		n.members.ReportFailure(target, err)
		if !idempotent && !safeToRetry(err) {
			// The hop may have delivered the ingest before failing;
			// retrying against another owner could double-apply it.
			n.writeError(w, http.StatusBadGateway,
				"proxy to %s failed after delivery may have happened: %v", target, err)
			return
		}
		n.logger.Warn("proxy failed, trying next owner", "method", r.Method, "path", r.URL.Path,
			"peer", target, "trace", obs.TraceID(r.Context()), "err", err)
	}
	w.Header().Set("Retry-After", "1")
	n.writeError(w, http.StatusServiceUnavailable,
		"session %q: all %d reachable owners failed", sess, len(candidates))
}

// safeToRetry reports whether a proxy error guarantees the request was
// never delivered: an injected drop/partition or a refused connection.
// Anything else (timeout, reset mid-response) is ambiguous.
func safeToRetry(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, syscall.ECONNREFUSED)
}

// proxyTo forwards the spooled request to target and streams the response
// through. It returns an error only while nothing has been written to the
// client (so the caller may retry another owner); once response headers
// arrive, the hop is committed and mid-stream failures only log.
func (n *Node) proxyTo(w http.ResponseWriter, r *http.Request, target string, body []byte) error {
	n.proxied.Add(1)
	sp := obs.Start(r.Context(), "proxy").SetStr("peer", target)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		sp.SetErr(err).End()
		return err
	}
	req.ContentLength = int64(len(body))
	for k, vs := range r.Header {
		req.Header[k] = vs
	}
	req.Header.Set(server.HeaderForwarded, n.cfg.Self)
	// The hop carries the trace ID, so the peer's trace of the forwarded
	// request shares this one's ID and /v1/trace?id= merges both halves.
	if id := obs.TraceID(r.Context()); id != "" {
		req.Header.Set(obs.Header, id)
	}

	// Bound the wait for response headers without capping the response
	// body — a forecast stream may legitimately flow for minutes.
	headerTimer := time.AfterFunc(n.cfg.HeaderTimeout, cancel)
	resp, err := n.client.Do(req)
	if err != nil {
		headerTimer.Stop()
		sp.SetErr(err).End()
		return err
	}
	headerTimer.Stop()
	defer resp.Body.Close()
	sp.SetInt("status", int64(resp.StatusCode))

	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	err = flushCopy(w, resp.Body)
	sp.SetErr(err).End()
	if err != nil && r.Context().Err() == nil {
		n.logger.Warn("proxy stream ended early", "peer", target,
			"trace", obs.TraceID(r.Context()), "err", err)
	}
	return nil
}

// flushCopy streams src to w, flushing after every read so proxied NDJSON
// lines keep their per-line latency through the extra hop.
func flushCopy(w http.ResponseWriter, src io.Reader) error {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, rerr := src.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return werr
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// listSessions fans GET /v1/ingest out to every reachable peer and merges
// the copies: one entry per session, attributed to its current primary,
// with replica copies dropped.
func (n *Node) listSessions(w http.ResponseWriter, r *http.Request) {
	var infos []server.SessionInfo
	if rec := n.serveLocal(r, nil); rec.status == http.StatusOK {
		json.Unmarshal(rec.body.Bytes(), &infos)
	}
	for i := range infos {
		infos[i].Node = n.cfg.Self
	}
	n.eachPeer(r.Context(), http.MethodGet, "/v1/ingest", func(peer string, resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		var peerInfos []server.SessionInfo
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&peerInfos); err != nil {
			return err
		}
		for i := range peerInfos {
			peerInfos[i].Node = peer
		}
		infos = append(infos, peerInfos...)
		return nil
	})
	// A replicated session appears once per holding node; keep the copy
	// on the node routing would send traffic to.
	best := make(map[string]server.SessionInfo, len(infos))
	for _, info := range infos {
		prev, seen := best[info.Session]
		if !seen || n.ownerRank(info.Session, info.Node) < n.ownerRank(info.Session, prev.Node) {
			best[info.Session] = info
		}
	}
	merged := make([]server.SessionInfo, 0, len(best))
	for _, info := range best {
		merged = append(merged, info)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Session < merged[j].Session })
	n.writeJSON(w, http.StatusOK, merged)
}

// ownerRank orders a session's holders: live owners by placement order,
// then everything else.
func (n *Node) ownerRank(sess, node string) int {
	for i, owner := range n.staticOwners(sess) {
		if owner == node && n.routable(owner) {
			return i
		}
	}
	return len(n.cfg.Peers)
}

// deleteSession fans DELETE /v1/ingest out to every reachable node so all
// copies of the session die together.
func (n *Node) deleteSession(w http.ResponseWriter, r *http.Request) {
	sess := r.URL.Query().Get("session")
	deleted := n.serveLocal(r, nil).status == http.StatusOK
	n.eachPeer(r.Context(), http.MethodDelete, "/v1/ingest?"+r.URL.RawQuery, func(_ string, resp *http.Response) error {
		if resp.StatusCode == http.StatusOK {
			deleted = true
		}
		return nil
	})
	if !deleted {
		n.writeError(w, http.StatusNotFound, "unknown session %q", sess)
		return
	}
	n.writeJSON(w, http.StatusOK, server.SessionDeleteResponse{Session: sess, Deleted: true})
}

// eachPeer sends method target (a path and query) to every routable peer
// in turn and hands each response to f. The request carries the forwarded
// marker, so the peer answers from its own state instead of fanning out
// again, and has HeaderTimeout to answer in full. The body is drained and
// closed after f; a failed exchange or an error from f is logged and the
// fan-out moves on.
func (n *Node) eachPeer(ctx context.Context, method, target string, f func(peer string, resp *http.Response) error) {
	for _, peer := range n.members.peers {
		if !n.members.Routable(peer) {
			continue
		}
		peerCtx, cancel := context.WithTimeout(ctx, n.cfg.HeaderTimeout)
		req, err := http.NewRequestWithContext(peerCtx, method, peer+target, nil)
		if err == nil {
			req.Header.Set(server.HeaderForwarded, n.cfg.Self)
			var resp *http.Response
			if resp, err = n.client.Do(req); err == nil {
				err = f(peer, resp)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		cancel()
		if err != nil {
			n.logger.Warn("peer fan-out", "method", method, "target", target, "peer", peer, "err", err)
		}
	}
}

// serveLocal serves a clone of r carrying body through the local server
// and returns the recorded response, so the caller can act on the outcome
// (replicate, merge, count) before anything reaches the client.
func (n *Node) serveLocal(r *http.Request, body []byte) *recorder {
	local := r.Clone(r.Context())
	local.Body = io.NopCloser(bytes.NewReader(body))
	local.ContentLength = int64(len(body))
	rec := newRecorder()
	n.local.ServeHTTP(rec, local)
	return rec
}

// spoolBody reads a routed request's body fully (the routing layer may
// need to send it more than once), bounded by the local server's ingest
// limit.
func (n *Node) spoolBody(r *http.Request) ([]byte, error) {
	limit := n.local.MaxIngestBytes()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return body, nil
}

func (n *Node) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		n.logger.Error("encode response", "err", err)
	}
}

func (n *Node) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	n.writeJSON(w, status, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
