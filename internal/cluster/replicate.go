package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// Replication: the primary for a session forwards every ingest body it
// folded whole — the exact bytes, in fold order — to the session's
// followers, which fold them through their own /v1/ingest handler.
// Folding is deterministic, so a follower's state is byte-identical to
// the primary's and a failover forecast reproduces the pre-failover one.
//
// Whenever a body cannot bring a follower there, catching up is one
// operation: under the session's ordering lock the primary sends its
// current session state tagged with its sequence number, and the follower
// installs it unless it already holds that sequence or a later one. A
// CRC32C header rejects a request torn mid-body before anything applies,
// and the sequence number makes retries and duplicated deliveries apply
// once. A follower the primary cannot reach joins a per-peer set of
// lagging sessions (the primary acks local; the set's size is the lag
// gauge) until the session's next write, Drain, or a resync started by
// the membership prober installs the primary's state there.

// crcTable is the Castagnoli polynomial, matching the WAL's frame CRC.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func bodyCRC(b []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(b, crcTable)) }

// repPayload is one replication request: an ingest body to fold (POST),
// or a session state to install (PUT).
type repPayload struct {
	method  string
	sess    string
	query   string // POST: the client request's raw query; PUT: session and model
	body    []byte
	seq     uint64
	created bool   // POST: the primary's fold created the session
	trace   string // originating request's trace ID; the follower's trace shares it
}

// errReplicaRejected marks a follower's 4xx: it cannot apply what it was
// sent onto what it holds, so only the primary's state can catch it up.
var errReplicaRejected = errors.New("cluster: replica rejected payload")

// replicator owns the replication stream toward one peer.
type replicator struct {
	n    *Node
	peer string

	mu      sync.Mutex
	lagging map[string]struct{} // sessions the peer may not hold in full

	resyncMu sync.Mutex // held by the one resync running toward the peer

	sent   atomic.Int64 // bodies and installs confirmed
	failed atomic.Int64 // requests that errored or were rejected
}

func newReplicator(n *Node, peer string) *replicator {
	return &replicator{n: n, peer: peer, lagging: make(map[string]struct{})}
}

func (r *replicator) setLagging(sess string, lagging bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lagging {
		r.lagging[sess] = struct{}{}
	} else {
		delete(r.lagging, sess)
	}
}

func (r *replicator) isLagging(sess string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.lagging[sess]
	return ok
}

func (r *replicator) laggingSessions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.lagging))
	for sess := range r.lagging {
		out = append(out, sess)
	}
	return out
}

// replicate brings the peer to the primary's state of p.sess after one
// write: by the body when the peer is in step, by the primary's state when
// the session lags, the peer rejects the body, or install is set (the
// primary's fold failed part-way). A peer the membership probe does not
// route to is not tried. Called under the session's ordering lock.
func (r *replicator) replicate(p repPayload, install bool) error {
	if !r.n.members.Routable(r.peer) {
		r.setLagging(p.sess, true)
		return fmt.Errorf("cluster: replica %s unreachable", r.peer)
	}
	if !install && !r.isLagging(p.sess) {
		err := r.send(p)
		if !errors.Is(err, errReplicaRejected) {
			return r.settle(p.sess, err)
		}
		r.failed.Add(1)
	}
	return r.install(p.sess, p.seq, p.trace)
}

// install sends the primary's current state of sess, at sequence seq, to
// the peer. Called under the session's ordering lock, so the state and
// the sequence belong together.
func (r *replicator) install(sess string, seq uint64, trace string) error {
	model, data, err := r.n.local.ExportSession(sess)
	if err != nil {
		// Nothing to catch the peer up with: the lag ends with this copy.
		r.setLagging(sess, false)
		return err
	}
	query := url.Values{"session": {sess}, "model": {model}}.Encode()
	return r.settle(sess, r.send(repPayload{method: http.MethodPut, sess: sess, query: query,
		body: data, seq: seq, trace: trace}))
}

// settle counts a request's outcome and takes the session off the lagging
// set or puts it there.
func (r *replicator) settle(sess string, err error) error {
	if err == nil {
		r.sent.Add(1)
	} else {
		r.failed.Add(1)
	}
	r.setLagging(sess, err != nil)
	return err
}

// resync installs the primary's state of every lagging session on the
// peer, each under its ordering lock, until none lags, a request fails,
// the peer stops being routable, or the deadline (zero: none) passes.
// Caller holds resyncMu.
func (r *replicator) resync(deadline time.Time) {
	for _, sess := range r.laggingSessions() {
		if !r.n.members.Routable(r.peer) || (!deadline.IsZero() && time.Now().After(deadline)) {
			return
		}
		o := r.n.order(sess)
		o.mu.Lock()
		var err error
		if r.isLagging(sess) { // a write may have caught it up meanwhile
			err = r.install(sess, o.seq, "")
		}
		o.mu.Unlock()
		if err != nil {
			r.n.logger.Warn("resync replica", "peer", r.peer, "session", sess, "err", err)
			return
		}
	}
}

// reached starts a background resync toward the peer when sessions lag
// and none is running. The membership prober calls it after each probe
// that found the peer alive.
func (r *replicator) reached() {
	if len(r.laggingSessions()) == 0 || !r.resyncMu.TryLock() {
		return
	}
	r.n.resyncs.Add(1)
	go func() {
		defer r.n.resyncs.Done()
		defer r.resyncMu.Unlock()
		r.resync(time.Time{})
	}()
}

// send delivers one payload to the peer with the replica marker, checksum
// and sequence headers. A 2xx is success, a 4xx errReplicaRejected, and
// anything else worth trying again later. The send gets half the proxy's
// HeaderTimeout, so a silent follower turns into a local ack before a
// proxy in front of the primary gives up on it.
func (r *replicator) send(p repPayload) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.HeaderTimeout/2)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, p.method, r.peer+"/v1/ingest?"+p.query, bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(p.body))
	req.Header.Set(server.HeaderReplica, "1")
	req.Header.Set(server.HeaderBodyCRC, bodyCRC(p.body))
	req.Header.Set(server.HeaderRepSeq, strconv.FormatUint(p.seq, 10))
	if p.created {
		req.Header.Set(server.HeaderCreated, "1")
	}
	if p.trace != "" {
		req.Header.Set(obs.Header, p.trace)
	}
	resp, err := r.n.client.Do(req)
	if err != nil {
		r.n.members.ReportFailure(r.peer, err)
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode < 300:
		r.n.members.ReportSuccess(r.peer)
		return nil
	case resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s: %s", errReplicaRejected, resp.Status, bytes.TrimSpace(msg))
	default:
		err := fmt.Errorf("cluster: replica %s: %s", r.peer, resp.Status)
		r.n.members.ReportFailure(r.peer, err)
		return err
	}
}

func (r *replicator) statsSnapshot() ReplicatorStats {
	return ReplicatorStats{Peer: r.peer, QueueLen: len(r.laggingSessions()), Sent: r.sent.Load(), Failed: r.failed.Load()}
}

// servePrimaryIngest is the write path on a session's (acting) primary:
// apply locally first — the local server WAL-appends, fsyncs, and folds —
// then bring the session's static replica set to the same state, and only
// then answer the client. The response's X-Vrdag-Ack header reports
// whether the ack covers the replicas ("replicated") or only local
// durability ("local": a follower was unreachable, the session is on its
// lagging set, and the replication-lag gauge shows it).
func (n *Node) servePrimaryIngest(w http.ResponseWriter, r *http.Request, sess string, body []byte) {
	o := n.order(sess)
	o.mu.Lock()
	defer o.mu.Unlock()

	rec := n.serveLocal(r, body)
	// A body whose fold began and then failed has applied the records
	// before the bad one; the followers must hold them too, or a failover
	// loses them. They get the primary's state; the client still gets the
	// local error.
	partial := rec.status != http.StatusOK && rec.header.Get(server.HeaderFolded) != ""
	if rec.status != http.StatusOK && !partial {
		rec.writeTo(w)
		return
	}

	// One sequence number per ingest, the same to every follower, so
	// whichever follower is promoted continues every other's stream.
	o.seq++
	p := repPayload{method: http.MethodPost, sess: sess, query: r.URL.RawQuery, body: body, seq: o.seq,
		created: rec.header.Get(server.HeaderCreated) != "", trace: obs.TraceID(r.Context())}
	ack := "replicated"
	replicated := 0
	for _, owner := range n.staticOwners(sess) {
		rep, ok := n.replicators[owner] // none for self
		if !ok {
			continue
		}
		sp := obs.Start(r.Context(), "replicate").SetStr("peer", owner).SetInt("seq", int64(p.seq))
		if err := rep.replicate(p, partial); err != nil {
			sp.SetErr(err).End()
			ack = "local"
			continue
		}
		sp.End()
		replicated++
	}
	if partial {
		rec.writeTo(w)
		return
	}
	if replicated == 0 {
		// Single-node placement (Replicas=1 or a one-node peer list):
		// local durability is the whole story.
		ack = "local"
	}
	if ack == "local" {
		n.ackLocal.Add(1)
	} else {
		n.ackReplicated.Add(1)
	}
	rec.header.Set(server.HeaderAck, ack)
	rec.writeTo(w)
}

// serveReplica applies a replication request on a follower: verify the
// checksum and sequence (a torn or unnumbered request is rejected whole,
// before anything applies), skip what this node already holds, then either
// install the sent state or fold the body through the local ingest
// handler — the same code path the primary folded it with. A body is
// folded only directly after the sequence before it, and counts as applied
// only if its fold succeeded and created the session exactly when the
// primary's did; otherwise the answer is a 4xx and the primary sends its
// state.
func (n *Node) serveReplica(w http.ResponseWriter, r *http.Request) {
	install := r.Method == http.MethodPut
	if r.URL.Path != "/v1/ingest" || (r.Method != http.MethodPost && !install) {
		n.local.ServeHTTP(w, r)
		return
	}
	sess := r.URL.Query().Get("session")
	body, err := n.spoolBody(r)
	seq, seqErr := strconv.ParseUint(r.Header.Get(server.HeaderRepSeq), 10, 64)
	switch {
	case err == nil && r.Header.Get(server.HeaderBodyCRC) != bodyCRC(body):
		err = fmt.Errorf("checksum missing or mismatched (torn stream?): got %d bytes", len(body))
	case err == nil && (seqErr != nil || seq < 1):
		err = fmt.Errorf("sequence %q: want an integer >= 1", r.Header.Get(server.HeaderRepSeq))
	}
	if err != nil {
		n.replicaRejected.Add(1)
		n.writeError(w, http.StatusBadRequest, "replica request: %v", err)
		return
	}

	o := n.order(sess)
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case seq <= o.seq:
		n.replicaSkipped.Add(1)
		n.writeJSON(w, http.StatusOK, map[string]any{"session": sess, "skipped": true, "seq": seq})
		return
	case install:
		if err := n.local.InstallSession(sess, r.URL.Query().Get("model"), body); err != nil {
			n.replicaRejected.Add(1)
			n.writeError(w, http.StatusBadRequest, "install: %v", err)
			return
		}
		o.seq = seq
		n.replicaApplied.Add(1)
		n.writeJSON(w, http.StatusOK, map[string]any{"session": sess, "installed": true, "seq": seq})
		return
	case seq != o.seq+1:
		n.writeError(w, http.StatusConflict, "session %q: replica holds sequence %d, body is %d", sess, o.seq, seq)
		return
	}
	rec := n.serveLocal(r, body)
	created, primaryCreated := rec.header.Get(server.HeaderCreated) != "", r.Header.Get(server.HeaderCreated) != ""
	if rec.status == http.StatusOK && created != primaryCreated {
		n.writeError(w, http.StatusConflict, "session %q: created by the replica's fold %v, by the primary's %v",
			sess, created, primaryCreated)
		return
	}
	if rec.status == http.StatusOK {
		o.seq = seq
		n.replicaApplied.Add(1)
	}
	rec.writeTo(w)
}
