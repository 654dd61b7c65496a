package cluster

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/server"
)

// Config wires one vrdag-serve process into a cluster. Self and Peers are
// base URLs ("http://host:port"); Peers includes Self, and every node
// must be started with the same Peers list — placement is a pure function
// of it.
type Config struct {
	Self     string
	Peers    []string
	Replicas int // copies per session, primary included (default 2)

	// AckLocal switches ingest acks from ack-after-replicate (the
	// default: the primary confirms the follower applied before
	// answering the client) to ack-local (answer once locally durable,
	// replicate asynchronously through the catch-up queue).
	AckLocal bool

	// MaxBodyBytes bounds the spooled body of a routed request (default
	// 64 MiB, matching the server's ingest bound).
	MaxBodyBytes int64

	ProxyAttempts    int           // owners tried per routed request (default 2)
	ProxyBackoff     time.Duration // backoff between proxy attempts, doubling (default 50ms)
	HeaderTimeout    time.Duration // per-hop response-header deadline (default 5s)
	ReplicateTimeout time.Duration // per synchronous replica send (default 5s)

	Membership MembershipConfig

	// Transport carries every cross-node request (probes, proxies,
	// replication). Tests inject a FaultTransport; nil means the default.
	Transport http.RoundTripper
	Logger    *slog.Logger
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Self must be set")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster: Self %q must appear in Peers %v", c.Self, c.Peers)
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Peers) {
		c.Replicas = len(c.Peers)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.ProxyAttempts <= 0 {
		c.ProxyAttempts = 2
	}
	if c.ProxyBackoff <= 0 {
		c.ProxyBackoff = 50 * time.Millisecond
	}
	if c.HeaderTimeout <= 0 {
		c.HeaderTimeout = 5 * time.Second
	}
	if c.ReplicateTimeout <= 0 {
		c.ReplicateTimeout = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cluster")
	}
	return nil
}

// sessStripes is the size of the per-session ordering lock array: an
// ingest holds its session's stripe across local-apply + replicate, so
// replication payloads leave the primary in exactly fold order.
const sessStripes = 64

// Node is the cluster front end wrapped around one local server.Server.
// It serves the same HTTP surface; session endpoints are routed to the
// session's primary, everything else is handled locally. Create with
// NewNode (which also decorates the local /healthz and /metrics via the
// server hooks), serve it instead of the server, and Close it after the
// HTTP listener is down.
type Node struct {
	cfg     Config
	local   *server.Server
	ring    *Ring
	members *Membership
	client  *http.Client
	logger  *slog.Logger

	draining atomic.Bool

	sessLocks [sessStripes]sync.Mutex

	repMu  sync.Mutex
	repSeq map[string]uint64 // per-session replication sequence, last assigned/applied

	replicators map[string]*replicator

	proxied      atomic.Int64
	proxyRetries atomic.Int64

	ackReplicated   atomic.Int64
	ackLocal        atomic.Int64
	replicaApplied  atomic.Int64
	replicaSkipped  atomic.Int64 // duplicate deliveries dropped by sequence
	replicaRejected atomic.Int64 // torn bodies dropped by checksum
}

// NewNode builds and starts the cluster layer: membership probing begins
// and per-peer replication flushers launch immediately.
func NewNode(local *server.Server, cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	var others []string
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			others = append(others, p)
		}
	}
	n := &Node{
		cfg:         cfg,
		local:       local,
		ring:        NewRing(cfg.Peers),
		members:     NewMembership(others, cfg.Membership, cfg.Transport),
		client:      &http.Client{Transport: cfg.Transport},
		logger:      cfg.Logger,
		repSeq:      make(map[string]uint64),
		replicators: make(map[string]*replicator, len(others)),
	}
	for _, p := range others {
		n.replicators[p] = newReplicator(n, p)
	}
	local.SetHealthHook(func(h *server.HealthResponse) {
		h.Peers = n.members.Snapshot()
		if n.draining.Load() && h.Status != "draining" {
			h.Status = "draining"
			h.Reason = "cluster drain: handing sessions to replicas"
		}
	})
	local.SetPromHook(n.renderProm)
	n.members.Start()
	for _, r := range n.replicators {
		r.start()
	}
	return n, nil
}

// sessLock returns the ordering stripe for a session.
func (n *Node) sessLock(sess string) *sync.Mutex {
	return &n.sessLocks[hashKey(sess)%sessStripes]
}

// nextRepSeq assigns the next replication sequence number for a session.
// The same map records sequences applied as a follower, so a promoted
// node's counter continues where the dead primary's stream left off.
func (n *Node) nextRepSeq(sess string) uint64 {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	n.repSeq[sess]++
	return n.repSeq[sess]
}

// seenRepSeq reports whether seq was already applied for sess. Sequence 0
// means "no sequence" and is never deduplicated.
func (n *Node) seenRepSeq(sess string, seq uint64) bool {
	if seq == 0 {
		return false
	}
	n.repMu.Lock()
	defer n.repMu.Unlock()
	return seq <= n.repSeq[sess]
}

// recordRepSeq marks seq applied for sess; called only after the local
// apply succeeded, so a failed apply stays retryable.
func (n *Node) recordRepSeq(sess string, seq uint64) {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	if seq > n.repSeq[sess] {
		n.repSeq[sess] = seq
	}
}

// routable reports whether session traffic may be routed to a node right
// now. Self is routable unless draining; peers follow the probe state.
func (n *Node) routable(node string) bool {
	if node == n.cfg.Self {
		return !n.draining.Load()
	}
	return n.members.Routable(node)
}

// staticOwners is a session's placement ignoring liveness: the nodes that
// hold (or owe) a copy. Replication always targets these — a down
// follower accrues a catch-up queue rather than shifting the copy to a
// node that would be stuck with it after recovery.
func (n *Node) staticOwners(sess string) []string {
	return n.ring.Owners(sess, n.cfg.Replicas, nil)
}

// Drain hands this node's traffic off and then drains the local server:
// the healthz hook starts reporting "draining" (peers route around us on
// their next probe), client requests arriving meanwhile are proxied to
// each session's surviving owner, and the replication queues get up to
// timeout to flush so followers hold the full acknowledged prefix before
// the local drain begins.
func (n *Node) Drain(timeout time.Duration) {
	n.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for _, r := range n.replicators {
		r.waitEmpty(deadline)
	}
	n.local.BeginDrain()
}

// Close stops membership probing and the replication flushers. The HTTP
// listener must already be down; queued replication payloads that never
// flushed are dropped (and counted).
func (n *Node) Close() {
	n.draining.Store(true)
	n.members.Stop()
	for _, r := range n.replicators {
		r.stop()
	}
}

// Stats is the cluster counters as a Go value, for embedders and tests;
// an operator reads the same numbers as vrdag_cluster_* on /metrics.
type Stats struct {
	Self     string
	Ack      string // "replicate" or "local"
	Replicas int
	Draining bool
	Peers    []PeerHealth

	Proxied      int64
	ProxyRetries int64

	AckReplicated   int64
	AckLocal        int64
	ReplicaApplied  int64
	ReplicaSkipped  int64
	ReplicaRejected int64

	Replication []ReplicatorStats // sorted by peer
}

// ReplicatorStats is one peer's replication stream state; QueueLen and
// QueueBytes are the replication-lag gauge (0 = follower caught up).
type ReplicatorStats struct {
	Peer       string
	QueueLen   int
	QueueBytes int64
	Sent       int64
	Flushed    int64
	Failed     int64
	Dropped    int64
}

func (n *Node) Stats() Stats {
	ack := "replicate"
	if n.cfg.AckLocal {
		ack = "local"
	}
	return Stats{
		Self:            n.cfg.Self,
		Ack:             ack,
		Replicas:        n.cfg.Replicas,
		Draining:        n.draining.Load(),
		Peers:           n.members.Snapshot(),
		Proxied:         n.proxied.Load(),
		ProxyRetries:    n.proxyRetries.Load(),
		AckReplicated:   n.ackReplicated.Load(),
		AckLocal:        n.ackLocal.Load(),
		ReplicaApplied:  n.replicaApplied.Load(),
		ReplicaSkipped:  n.replicaSkipped.Load(),
		ReplicaRejected: n.replicaRejected.Load(),
		Replication:     n.replicationStats(),
	}
}

// replicationStats snapshots every peer's stream once, sorted by peer URL
// so /metrics renders deterministically.
func (n *Node) replicationStats() []ReplicatorStats {
	out := make([]ReplicatorStats, 0, len(n.replicators))
	for _, r := range n.replicators {
		out = append(out, r.statsSnapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// recorder buffers a locally served response so the primary-ingest path
// can apply first and only answer the client after replication settles.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), status: http.StatusOK}
}

func (c *recorder) Header() http.Header         { return c.header }
func (c *recorder) WriteHeader(code int)        { c.status = code }
func (c *recorder) Write(b []byte) (int, error) { return c.body.Write(b) }
func (c *recorder) Flush()                      {}

// writeTo replays the recorded response onto the real writer.
func (c *recorder) writeTo(w http.ResponseWriter) {
	for k, vs := range c.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(c.status)
	w.Write(c.body.Bytes())
}
