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
// of it. An ingest is acknowledged after its followers hold the state it
// produced, or locally (degraded) when one is unreachable; a routed body
// is spooled up to the wrapped server's MaxIngestBytes.
type Config struct {
	Self     string   // this node's base URL, as it appears in Peers
	Peers    []string // every node's base URL, Self included
	Replicas int      // copies per session, primary included (default 2)

	// ProxyBackoff is the wait before trying a session's next owner,
	// doubling per attempt (default 50ms); each reachable owner is tried
	// once.
	ProxyBackoff time.Duration
	// HeaderTimeout bounds the wait for a peer's response headers on every
	// hop (default 5s). A synchronous replica send gets half of it, so a
	// primary whose follower is silent acks local before the proxy in
	// front of it gives up.
	HeaderTimeout time.Duration

	// Membership tunes the peer prober.
	Membership MembershipConfig

	// Transport carries every cross-node request (probes, proxies,
	// replication). Tests inject a FaultTransport; nil means the default.
	Transport http.RoundTripper
	// Logger receives routing and replication warnings; nil means a
	// stderr text logger tagged component=cluster.
	Logger *slog.Logger
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
	if c.ProxyBackoff <= 0 {
		c.ProxyBackoff = 50 * time.Millisecond
	}
	if c.HeaderTimeout <= 0 {
		c.HeaderTimeout = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cluster")
	}
	return nil
}

// sessionOrder is one session's write ordering on this node. A primary
// holds mu across local apply and replicate, and across exporting the
// state a follower installs, so replication requests leave in exactly
// fold order, each with the sequence its state belongs to; a follower
// holds it across the sequence check and apply. seq is the last
// replication sequence this node assigned as primary or holds as
// follower, so a promoted node's counter continues where the dead
// primary's stream left off.
type sessionOrder struct {
	mu  sync.Mutex
	seq uint64 // guarded by mu
}

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

	ordersMu sync.Mutex
	orders   map[string]*sessionOrder // never pruned: see order

	replicators map[string]*replicator
	resyncs     sync.WaitGroup // background resyncs the prober started

	proxied      atomic.Int64
	proxyRetries atomic.Int64

	ackReplicated   atomic.Int64
	ackLocal        atomic.Int64
	replicaApplied  atomic.Int64 // bodies folded and states installed
	replicaSkipped  atomic.Int64 // duplicate deliveries dropped by sequence
	replicaRejected atomic.Int64 // torn or unnumbered requests dropped
}

// NewNode builds and starts the cluster layer: membership probing begins
// immediately, and each probe that reaches a peer catches it up on the
// sessions it lags on.
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
		orders:      make(map[string]*sessionOrder),
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
	n.members.reached = func(peer string) { n.replicators[peer].reached() }
	n.members.Start()
	return n, nil
}

// order returns a session's ordering entry, creating it on first use.
// Entries are never removed: a session deleted and re-created keeps its
// sequence monotonic on every node, so a follower never mistakes the new
// session's first bodies for duplicates of the old one's.
func (n *Node) order(sess string) *sessionOrder {
	n.ordersMu.Lock()
	defer n.ordersMu.Unlock()
	o := n.orders[sess]
	if o == nil {
		o = &sessionOrder{}
		n.orders[sess] = o
	}
	return o
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
// follower lags until it is caught up, rather than shifting the copy to a
// node that would be stuck with it after recovery.
func (n *Node) staticOwners(sess string) []string {
	return n.ring.Owners(sess, n.cfg.Replicas, nil)
}

// Drain hands this node's traffic off and then drains the local server:
// the healthz hook starts reporting "draining" (peers route around us on
// their next probe), client requests arriving meanwhile are proxied to
// each session's surviving owner, and every lagging session is installed
// on its follower, within timeout, so followers hold the full
// acknowledged prefix before the local drain begins.
func (n *Node) Drain(timeout time.Duration) {
	n.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for _, r := range n.replicators {
		r.resyncMu.Lock()
		r.resync(deadline)
		r.resyncMu.Unlock()
	}
	n.local.BeginDrain()
}

// Close stops membership probing and waits for the resyncs it started.
// The HTTP listener must already be down.
func (n *Node) Close() {
	n.draining.Store(true)
	n.members.Stop()
	n.resyncs.Wait()
}

// Stats is the cluster counters as a Go value, for embedders and tests;
// an operator reads the same numbers as vrdag_cluster_* on /metrics.
type Stats struct {
	Self     string       // this node's base URL
	Replicas int          // copies per session, primary included
	Draining bool         // handing sessions to replicas (Drain called)
	Peers    []PeerHealth // every other node's probe state

	Proxied      int64 // session requests proxied to a peer owner
	ProxyRetries int64 // proxy attempts beyond the first owner

	AckReplicated   int64 // ingests acked after every follower applied
	AckLocal        int64 // ingests acked on local durability alone (degraded or single-node)
	ReplicaApplied  int64 // replicated bodies folded and session states installed here as follower
	ReplicaSkipped  int64 // duplicate deliveries dropped by sequence
	ReplicaRejected int64 // torn, oversized, unnumbered or undecodable requests dropped

	Replication []ReplicatorStats // sorted by peer
}

// ReplicatorStats is one peer's replication stream state. QueueLen is the
// replication-lag gauge: the sessions the peer may not hold in full (0 =
// caught up).
type ReplicatorStats struct {
	Peer     string
	QueueLen int
	Sent     int64 // bodies and session installs confirmed
	Failed   int64 // requests that errored or were rejected
}

func (n *Node) Stats() Stats {
	return Stats{
		Self:            n.cfg.Self,
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

// recorder buffers a locally served response (serveLocal), so the
// primary-ingest path can apply first and only answer the client after
// replication settles.
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
