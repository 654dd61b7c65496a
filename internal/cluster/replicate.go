package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// Replication: the primary for a session forwards every ingest body it
// folded, whole or up to a bad record — the exact bytes, in the exact
// order it folded them — to the session's follower, which applies them
// through its own /v1/ingest handler. Folding is deterministic, so the
// follower's state is byte-identical to the primary's and a failover
// forecast reproduces the pre-failover one exactly.
//
// Three guards keep the streams exact under faults:
//
//   - a CRC32C of the body travels in a header and is verified before the
//     follower folds anything, so a stream torn mid-body is rejected
//     whole (a partially folded body could never be retried safely);
//   - a per-session sequence number deduplicates retries and duplicated
//     deliveries, so "maybe it arrived" failures are safe to resend;
//   - an ordered per-peer catch-up queue buffers payloads while the
//     follower is unreachable (the primary acks local — degraded — and
//     the replication-lag gauge reports the backlog) and replays them
//     in order once it returns.

// crcTable is the Castagnoli polynomial, matching the WAL's frame CRC.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func bodyCRC(b []byte) string {
	var buf [4]byte
	crc := crc32.Checksum(b, crcTable)
	buf[0], buf[1], buf[2], buf[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	return hex.EncodeToString(buf[:])
}

// repPayload is one replicated ingest: the raw body plus everything the
// follower needs to apply it identically.
type repPayload struct {
	sess  string
	query string // the client request's raw query (session, window, flush, ...)
	body  []byte
	crc   string
	seq   uint64
	trace string // originating request's trace ID; the follower's trace shares it
	// foldErr is the CRC of the primary's error response when its fold
	// began and failed; empty for a body it folded whole.
	foldErr string
}

// errReplicaRejected marks a permanent replication failure (the follower
// answered 4xx): retrying cannot succeed, so the payload is dropped and
// counted rather than wedging the queue.
var errReplicaRejected = errors.New("cluster: replica rejected payload")

// replicator owns the ordered replication stream toward one peer.
type replicator struct {
	n    *Node
	peer string

	mu         sync.Mutex
	queue      []repPayload
	queueBytes int64
	flushing   bool // flusher is mid-send; direct sends must queue behind it

	kick     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	sent    atomic.Int64 // synchronous sends confirmed
	flushed atomic.Int64 // catch-up queue sends confirmed
	failed  atomic.Int64 // send attempts that errored
	dropped atomic.Int64 // payloads dropped as permanently rejected
}

func newReplicator(n *Node, peer string) *replicator {
	return &replicator{
		n:      n,
		peer:   peer,
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
}

func (r *replicator) start() {
	r.wg.Add(1)
	go r.flushLoop()
}

func (r *replicator) stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	r.mu.Lock()
	if len(r.queue) > 0 {
		r.n.logger.Warn("dropping queued replication payloads at shutdown", "peer", r.peer, "queued", len(r.queue))
		r.dropped.Add(int64(len(r.queue)))
		r.queue, r.queueBytes = nil, 0
	}
	r.mu.Unlock()
}

func (r *replicator) enqueueLocked(p repPayload) {
	r.queue = append(r.queue, p)
	r.queueBytes += int64(len(p.body))
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// replicate attempts a synchronous ordered send. If the stream is
// lagging (queued payloads or a flush in progress) the payload joins the
// queue — sending it directly would reorder the follower's folds — and
// the error tells the primary to ack local. Called under the session's
// ordering lock, so at most one payload per session is in flight.
func (r *replicator) replicate(p repPayload) error {
	r.mu.Lock()
	if len(r.queue) > 0 || r.flushing || !r.n.members.Routable(r.peer) {
		r.enqueueLocked(p)
		r.mu.Unlock()
		return fmt.Errorf("cluster: replica %s lagging, payload queued", r.peer)
	}
	r.mu.Unlock()

	err := r.send(p)
	switch {
	case err == nil:
		r.sent.Add(1)
		r.n.members.ReportSuccess(r.peer)
		return nil
	case errors.Is(err, errReplicaRejected):
		r.failed.Add(1)
		r.dropped.Add(1)
		r.n.logger.Error("replicate", "peer", r.peer, "session", p.sess, "trace", p.trace, "err", err)
		return err
	default:
		// Transient or ambiguous: queue for ordered retry (the sequence
		// number makes a resend of a maybe-delivered payload safe).
		r.failed.Add(1)
		r.n.members.ReportFailure(r.peer, err)
		r.mu.Lock()
		r.enqueueLocked(p)
		r.mu.Unlock()
		return err
	}
}

// flushLoop drains the catch-up queue in order, retrying the head with
// exponential backoff until the peer takes it (or rejects it for good).
func (r *replicator) flushLoop() {
	defer r.wg.Done()
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.kick:
		}
		for {
			r.mu.Lock()
			if len(r.queue) == 0 {
				r.flushing = false
				r.mu.Unlock()
				break
			}
			p := r.queue[0]
			r.flushing = true
			r.mu.Unlock()

			err := r.send(p)
			if err == nil || errors.Is(err, errReplicaRejected) {
				if err == nil {
					r.flushed.Add(1)
					r.n.members.ReportSuccess(r.peer)
				} else {
					r.failed.Add(1)
					r.dropped.Add(1)
					r.n.logger.Error("flush replica", "peer", r.peer, "session", p.sess, "trace", p.trace, "err", err)
				}
				r.mu.Lock()
				r.queue = r.queue[1:]
				r.queueBytes -= int64(len(p.body))
				r.mu.Unlock()
				backoff = 50 * time.Millisecond
				continue
			}
			r.failed.Add(1)
			r.n.members.ReportFailure(r.peer, err)
			select {
			case <-r.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}

// send delivers one payload to the peer's ingest handler with the replica
// marker, checksum, and sequence headers. A 2xx is success, a 4xx is
// permanent rejection, anything else is worth retrying. The send gets half
// the proxy's HeaderTimeout, so a silent follower turns into a local ack
// before a proxy in front of the primary gives up on it.
func (r *replicator) send(p repPayload) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.HeaderTimeout/2)
	defer cancel()
	url := r.peer + "/v1/ingest"
	if p.query != "" {
		url += "?" + p.query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(p.body))
	req.Header.Set(server.HeaderReplica, "1")
	req.Header.Set(server.HeaderBodyCRC, p.crc)
	req.Header.Set(server.HeaderRepSeq, strconv.FormatUint(p.seq, 10))
	if p.foldErr != "" {
		req.Header.Set(server.HeaderFolded, p.foldErr)
	}
	if p.trace != "" {
		req.Header.Set(obs.Header, p.trace)
	}
	resp, err := r.n.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode < 300:
		return nil
	case resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s: %s", errReplicaRejected, resp.Status, bytes.TrimSpace(msg))
	default:
		return fmt.Errorf("cluster: replica %s: %s", r.peer, resp.Status)
	}
}

// waitEmpty blocks until the queue has drained (flush included) or the
// deadline passes; used by Drain.
func (r *replicator) waitEmpty(deadline time.Time) {
	for time.Now().Before(deadline) {
		r.mu.Lock()
		empty := len(r.queue) == 0 && !r.flushing
		r.mu.Unlock()
		if empty {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *replicator) statsSnapshot() ReplicatorStats {
	r.mu.Lock()
	ql, qb := len(r.queue), r.queueBytes
	r.mu.Unlock()
	return ReplicatorStats{
		Peer:       r.peer,
		QueueLen:   ql,
		QueueBytes: qb,
		Sent:       r.sent.Load(),
		Flushed:    r.flushed.Load(),
		Failed:     r.failed.Load(),
		Dropped:    r.dropped.Load(),
	}
}

// servePrimaryIngest is the write path on a session's (acting) primary:
// apply locally first — the local server WAL-appends, fsyncs, and folds —
// then stream the same body to the session's static replica set, and only
// then answer the client. The response's X-Vrdag-Ack header reports
// whether the ack covers the replicas ("replicated") or only local
// durability ("local": a follower was unreachable or lagging, the payload
// sits in its ordered catch-up queue, and the replication-lag gauge shows
// the debt).
func (n *Node) servePrimaryIngest(w http.ResponseWriter, r *http.Request, sess string, body []byte) {
	o := n.order(sess)
	o.mu.Lock()
	defer o.mu.Unlock()

	rec := n.serveLocal(r, body)
	// A body whose fold began and then failed has applied the records
	// before the bad one; the followers must fold it too, or a failover
	// loses them. The client still gets the local error.
	partial := rec.status != http.StatusOK && rec.header.Get(server.HeaderFolded) != ""
	if rec.status != http.StatusOK && !partial {
		rec.writeTo(w)
		return
	}

	// One sequence number per ingest, the same to every follower, so
	// whichever follower is promoted continues every other's stream.
	o.seq++
	p := repPayload{sess: sess, query: r.URL.RawQuery, body: body, crc: bodyCRC(body),
		seq: o.seq, trace: obs.TraceID(r.Context())}
	if partial {
		p.foldErr = bodyCRC(rec.body.Bytes())
	}
	ack := "replicated"
	replicated := 0
	for _, owner := range n.staticOwners(sess) {
		rep, ok := n.replicators[owner] // none for self
		if !ok {
			continue
		}
		sp := obs.Start(r.Context(), "replicate").SetStr("peer", owner).SetInt("seq", int64(p.seq))
		if err := rep.replicate(p); err != nil {
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

// serveReplica applies a replicated ingest on a follower: verify the body
// checksum (a torn stream is rejected whole, before anything folds), drop
// already-applied sequences, then run the body through the local ingest
// handler — the same code path the primary folded it with.
func (n *Node) serveReplica(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/ingest" {
		n.local.ServeHTTP(w, r)
		return
	}
	sess := r.URL.Query().Get("session")
	body, err := n.spoolBody(r)
	if err != nil {
		n.replicaRejected.Add(1)
		n.writeError(w, http.StatusBadRequest, "replica body: %v", err)
		return
	}
	if want := r.Header.Get(server.HeaderBodyCRC); want != "" && want != bodyCRC(body) {
		n.replicaRejected.Add(1)
		n.writeError(w, http.StatusBadRequest,
			"replica body checksum mismatch (torn stream?): got %d bytes", len(body))
		return
	}
	seq, _ := strconv.ParseUint(r.Header.Get(server.HeaderRepSeq), 10, 64)

	o := n.order(sess)
	o.mu.Lock()
	defer o.mu.Unlock()
	// Sequence 0 means "no sequence" and is never deduplicated.
	if seq != 0 && seq <= o.seq {
		n.replicaSkipped.Add(1)
		n.writeJSON(w, http.StatusOK, map[string]any{"session": sess, "skipped": true, "seq": seq})
		return
	}
	rec := n.serveLocal(r, body)
	// Record the sequence once the fold began, so a failed apply that
	// folded nothing stays retryable and one that folded part of the body
	// is never folded twice.
	began := rec.status == http.StatusOK || rec.header.Get(server.HeaderFolded) != ""
	if began {
		o.seq = max(o.seq, seq)
	}
	switch want := r.Header.Get(server.HeaderFolded); {
	case rec.status == http.StatusOK:
		n.replicaApplied.Add(1)
	case began && want != "" && want == bodyCRC(rec.body.Bytes()):
		// The primary's fold failed with this same error, so both kept
		// the same records: the body is applied.
		n.replicaApplied.Add(1)
		n.writeJSON(w, http.StatusOK, map[string]any{"session": sess, "seq": seq, "partial": true})
		return
	}
	rec.writeTo(w)
}
