package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/server"
)

// One small model per test process, shared read-only by every node of
// every test cluster (matching the server package's trainedModel idiom).
var (
	cmOnce  sync.Once
	cmModel *core.Model
	cmRef   *dyngraph.Sequence
	cmErr   error
)

func clusterModel(t *testing.T) (*core.Model, *dyngraph.Sequence) {
	t.Helper()
	cmOnce.Do(func() {
		cmRef = datasets.Generate(datasets.Config{
			Name: "t", N: 24, T: 6, F: 2, EdgesPerStep: 40, Communities: 2, Seed: 3,
		})
		cfg := core.DefaultConfig(cmRef.N, cmRef.F)
		cfg.Epochs = 2
		cfg.Seed = 3
		cmModel = core.New(cfg)
		_, cmErr = cmModel.Fit(cmRef)
	})
	if cmErr != nil {
		t.Fatalf("shared model setup: %v", cmErr)
	}
	return cmModel, cmRef
}

// chunkCSV renders one reference snapshot as an ingest body whose time
// column is step, so consecutive chunks fold as consecutive windows.
func chunkCSV(ref *dyngraph.Sequence, step int) string {
	var sb strings.Builder
	sb.WriteString("src,dst,t\n")
	s := ref.At(step % ref.T())
	for u := 0; u < s.N; u++ {
		for _, v := range s.Out[u] {
			fmt.Fprintf(&sb, "n%d,n%d,%d\n", u, v, step)
		}
	}
	return sb.String()
}

// swapHandler lets the httptest listeners start (fixing the peer URLs)
// before the Nodes that serve them exist.
type swapHandler struct{ v atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.v.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// testCluster is an in-process N-node vrdag cluster with every cross-node
// request running through one shared FaultTransport.
type testCluster struct {
	t        *testing.T
	ft       *FaultTransport
	urls     []string
	hosts    []string
	handlers []*swapHandler
	mutate   func(i int, cfg *Config)
	srvs     []*server.Server
	nodes    []*Node
	ts       []*httptest.Server
	killed   []bool
}

func newTestCluster(t *testing.T, size int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	c := &testCluster{t: t, ft: NewFaultTransport(nil), mutate: mutate, killed: make([]bool, size),
		srvs: make([]*server.Server, size), nodes: make([]*Node, size)}
	for i := 0; i < size; i++ {
		c.handlers = append(c.handlers, &swapHandler{})
		ts := httptest.NewServer(c.handlers[i])
		c.ts = append(c.ts, ts)
		c.urls = append(c.urls, ts.URL)
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatalf("parse %s: %v", ts.URL, err)
		}
		c.hosts = append(c.hosts, u.Host)
	}
	for i := 0; i < size; i++ {
		c.start(i)
	}
	t.Cleanup(func() {
		for i := range c.ts {
			if !c.killed[i] {
				c.ts[i].Close()
			}
			c.nodes[i].Close()
			c.srvs[i].Close()
		}
	})
	return c
}

// start puts a fresh, empty server and Node behind node i's listener.
func (c *testCluster) start(i int) {
	c.t.Helper()
	m, ref := clusterModel(c.t)
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := server.New(server.Config{Logger: discard})
	if err := s.Register("email", m, ref); err != nil {
		c.t.Fatalf("register: %v", err)
	}
	cfg := Config{
		Self:  c.urls[i],
		Peers: append([]string(nil), c.urls...),
		Membership: MembershipConfig{
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  500 * time.Millisecond,
			MaxBackoff:    250 * time.Millisecond,
			DownAfter:     2,
		},
		ProxyBackoff: 10 * time.Millisecond,
		Transport:    c.ft,
		Logger:       discard,
	}
	if c.mutate != nil {
		c.mutate(i, &cfg)
	}
	node, err := NewNode(s, cfg)
	if err != nil {
		c.t.Fatalf("node %d: %v", i, err)
	}
	c.handlers[i].v.Store(node)
	c.srvs[i], c.nodes[i] = s, node
}

// restart replaces node i by a fresh server and Node behind the same
// URL: a process restarted with no state, which its peers never saw go
// down.
func (c *testCluster) restart(i int) {
	c.t.Helper()
	node, srv := c.nodes[i], c.srvs[i]
	c.start(i)
	node.Close()
	srv.Close()
}

// kill closes a node's listener: in-flight requests finish, new
// connections are refused — a kill -9 as its peers observe it.
func (c *testCluster) kill(i int) {
	c.killed[i] = true
	c.ts[i].Close()
}

func (c *testCluster) index(url string) int {
	for i, u := range c.urls {
		if u == url {
			return i
		}
	}
	c.t.Fatalf("unknown node %s", url)
	return -1
}

// placement returns a session's primary and first-replica node indices.
func (c *testCluster) placement(sess string) (primary, follower int) {
	owners := c.nodes[0].staticOwners(sess)
	if len(owners) < 2 {
		c.t.Fatalf("session %q: want 2 owners, got %v", sess, owners)
	}
	return c.index(owners[0]), c.index(owners[1])
}

// other returns a node index not in used.
func (c *testCluster) other(used ...int) int {
	for i := range c.urls {
		skip := false
		for _, j := range used {
			if i == j {
				skip = true
			}
		}
		if !skip {
			return i
		}
	}
	c.t.Fatal("no spare node")
	return -1
}

func (c *testCluster) ingest(via int, sess string, step int) (status int, ack string, out server.IngestResponse) {
	c.t.Helper()
	_, ref := clusterModel(c.t)
	resp, err := http.Post(c.urls[via]+"/v1/ingest?session="+sess, "text/csv",
		strings.NewReader(chunkCSV(ref, step)))
	if err != nil {
		c.t.Fatalf("ingest %s step %d via node %d: %v", sess, step, via, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			c.t.Fatalf("ingest %s: decode %q: %v", sess, data, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(server.HeaderAck), out
}

func (c *testCluster) mustIngest(via int, sess string, step int, wantAck string) server.IngestResponse {
	c.t.Helper()
	status, ack, out := c.ingest(via, sess, step)
	if status != http.StatusOK {
		c.t.Fatalf("ingest %s step %d via node %d: status %d", sess, step, via, status)
	}
	if wantAck != "" && ack != wantAck {
		c.t.Fatalf("ingest %s step %d via node %d: ack %q, want %q", sess, step, via, ack, wantAck)
	}
	return out
}

// forecastAt runs a pinned-seed forecast against any base URL and returns
// the response's steps plus the forecast sequence serialized canonically —
// the byte-identity unit the failover tests compare.
func forecastAt(t *testing.T, baseURL, sess string, seed int64, T int) (status, steps int, seqJSON string) {
	t.Helper()
	return forecastWith(t, baseURL, sess, seed, T, nil)
}

// forecastWith is forecastAt with extra request headers.
func forecastWith(t *testing.T, baseURL, sess string, seed int64, T int, header http.Header) (status, steps int, seqJSON string) {
	t.Helper()
	body, _ := json.Marshal(server.ForecastRequest{Session: sess, T: T, Seed: &seed})
	req, _ := http.NewRequest(http.MethodPost, baseURL+"/v1/forecast", bytes.NewReader(body))
	req.Header = header.Clone()
	if req.Header == nil {
		req.Header = http.Header{}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("forecast %s at %s: %v", sess, baseURL, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, string(data)
	}
	var out server.ForecastResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("forecast %s: decode: %v", sess, err)
	}
	seq, _ := json.Marshal(out.Sequence)
	return resp.StatusCode, out.Steps, string(seq)
}

func (c *testCluster) forecast(via int, sess string, seed int64, T int) (int, int, string) {
	c.t.Helper()
	return forecastAt(c.t, c.urls[via], sess, seed, T)
}

func (c *testCluster) mustForecast(via int, sess string, seed int64, T int) (int, string) {
	c.t.Helper()
	status, steps, seq := c.forecast(via, sess, seed, T)
	if status != http.StatusOK {
		c.t.Fatalf("forecast %s via node %d: status %d: %s", sess, via, status, seq)
	}
	return steps, seq
}

// heldForecast forecasts from node i's own copy of sess: the forwarded
// marker makes the node serve it instead of routing it to the primary.
func (c *testCluster) heldForecast(i int, sess string, seed int64, T int) (int, string) {
	c.t.Helper()
	status, steps, seq := forecastWith(c.t, c.urls[i], sess, seed, T, http.Header{server.HeaderForwarded: {c.urls[i]}})
	if status != http.StatusOK {
		c.t.Fatalf("forecast %s on node %d: status %d: %s", sess, i, status, seq)
	}
	return steps, seq
}

// scrape fetches node i's /metrics exposition.
func (c *testCluster) scrape(i int) string {
	c.t.Helper()
	resp, err := http.Get(c.urls[i] + "/metrics")
	if err != nil {
		c.t.Fatalf("GET /metrics on node %d: %v", i, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET /metrics on node %d: status %d, err %v", i, resp.StatusCode, err)
	}
	return string(body)
}

// waitReplicationDrained blocks until node i lags on no session toward
// any peer: every follower holds the node's state of every session.
func (c *testCluster) waitReplicationDrained(i int, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		drained := true
		for _, rs := range c.nodes[i].Stats().Replication {
			if rs.QueueLen > 0 {
				drained = false
			}
		}
		if drained {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("node %d still lags on sessions: %+v", i, c.nodes[i].Stats().Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// heldSteps is the step count of node i's own copy of sess (0 when it
// holds none), read from the node's local listing.
func (c *testCluster) heldSteps(i int, sess string) int {
	c.t.Helper()
	req, _ := http.NewRequest(http.MethodGet, c.urls[i]+"/v1/ingest", nil)
	req.Header.Set(server.HeaderForwarded, c.urls[i]) // this node's sessions only
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("list node %d: %v", i, err)
	}
	defer resp.Body.Close()
	var infos []server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		c.t.Fatalf("decode node %d listing: %v", i, err)
	}
	for _, info := range infos {
		if info.Session == sess {
			return info.Steps
		}
	}
	return 0
}

// waitPeerState blocks until node i's membership sees peer in state.
func (c *testCluster) waitPeerState(i int, peer, state string, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, ph := range c.nodes[i].members.Snapshot() {
			if ph.Peer == peer && ph.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("node %d never saw %s as %s: %+v", i, peer, state, c.nodes[i].members.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterRoutesSessionTrafficFromAnyNode(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "routed"
	p, f := c.placement(sess)
	third := c.other(p, f)

	// Ingest through every node: all three land on the same primary, in
	// order, each replicated before the ack.
	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(f, sess, 1, "replicated")
	out := c.mustIngest(third, sess, 2, "replicated")
	if out.Steps != 3 {
		t.Fatalf("cumulative steps %d, want 3", out.Steps)
	}

	// Same forecast bytes regardless of entry node.
	steps0, seq0 := c.mustForecast(p, sess, 42, 3)
	if steps0 != 3 {
		t.Fatalf("forecast steps %d, want 3", steps0)
	}
	for _, via := range []int{f, third} {
		if _, seq := c.mustForecast(via, sess, 42, 3); seq != seq0 {
			t.Fatalf("forecast via node %d differs from primary's", via)
		}
	}

	// The fan-out listing dedups the replica copy and attributes the
	// session to its primary.
	resp, err := http.Get(c.urls[third] + "/v1/ingest")
	if err != nil {
		t.Fatalf("list sessions: %v", err)
	}
	var infos []server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Session != sess || infos[0].Node != c.urls[p] || infos[0].Steps != 3 {
		t.Fatalf("merged listing wrong: %+v", infos)
	}

	ps, fs := c.nodes[p].Stats(), c.nodes[f].Stats()
	if ps.AckReplicated != 3 {
		t.Fatalf("primary ack_replicated %d, want 3", ps.AckReplicated)
	}
	if fs.ReplicaApplied != 3 {
		t.Fatalf("follower replica_applied %d, want 3", fs.ReplicaApplied)
	}
}

// TestClusterDeleteRemovesEveryCopy: DELETE /v1/ingest through a node
// that holds no copy removes the session from its primary and its
// follower, and a second DELETE finds nothing anywhere.
func TestClusterDeleteRemovesEveryCopy(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "doomed"
	p, f := c.placement(sess)
	third := c.other(p, f)
	c.mustIngest(p, sess, 0, "replicated")

	del := func() int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, c.urls[third]+"/v1/ingest?session="+sess, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := del(); status != http.StatusOK {
		t.Fatalf("delete via a node without a copy: status %d, want 200", status)
	}
	for _, i := range []int{p, f} {
		// The forwarded marker makes the node list its own sessions only.
		req, _ := http.NewRequest(http.MethodGet, c.urls[i]+"/v1/ingest", nil)
		req.Header.Set(server.HeaderForwarded, c.urls[third])
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("list node %d: %v", i, err)
		}
		var infos []server.SessionInfo
		err = json.NewDecoder(resp.Body).Decode(&infos)
		resp.Body.Close()
		if err != nil || len(infos) != 0 {
			t.Fatalf("node %d after the delete: %+v (err %v), want no sessions", i, infos, err)
		}
	}
	if status := del(); status != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", status)
	}
}

func TestClusterFailoverForecastsAreByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "failover"
	p, f := c.placement(sess)
	third := c.other(p, f)

	for step := 0; step < 3; step++ {
		c.mustIngest(third, sess, step, "replicated")
	}
	_, before := c.mustForecast(third, sess, 7, 4)

	c.kill(p)

	// The first post-kill request discovers the death itself: connection
	// refused is a safe retry, so it fails over within the request.
	steps, after := c.mustForecast(third, sess, 7, 4)
	if steps != 3 {
		t.Fatalf("post-failover steps %d, want 3", steps)
	}
	if after != before {
		t.Fatal("post-failover forecast is not byte-identical to the pre-failover one")
	}
	if _, direct := c.mustForecast(f, sess, 7, 4); direct != before {
		t.Fatal("forecast served by the promoted follower differs")
	}

	// Writes keep flowing: the follower acts as primary (acking local —
	// its own replica target is the dead node).
	out := c.mustIngest(third, sess, 3, "local")
	if out.Steps != 4 {
		t.Fatalf("post-failover ingest steps %d, want 4", out.Steps)
	}
	if steps, _ := c.mustForecast(third, sess, 7, 4); steps != 4 {
		t.Fatalf("steps after post-failover ingest %d, want 4", steps)
	}
}

// TestClusterPartialFoldSurvivesFailover: a body that fails part-way
// through its fold gets the client a 400, yet the windows sealed before the
// bad record stay folded on the primary. The follower must fold the same
// prefix, or a failover forecasts from fewer steps than the client saw.
func TestClusterPartialFoldSurvivesFailover(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "partial"
	p, f := c.placement(sess)
	third := c.other(p, f)
	_, ref := clusterModel(t)

	c.mustIngest(third, sess, 0, "replicated")
	c.mustIngest(third, sess, 1, "replicated")
	// Windows 2 and 3, then a record whose time does not parse: window 2
	// seals when window 3 begins, window 3 is left pending.
	body := chunkCSV(ref, 2) + strings.TrimPrefix(chunkCSV(ref, 3), "src,dst,t\n") + "n1,n2,notatime\n"
	resp, err := http.Post(c.urls[third]+"/v1/ingest?session="+sess, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body with a bad record: status %d (%s), want 400", resp.StatusCode, msg)
	}
	steps, before := c.mustForecast(third, sess, 7, 4)
	if steps != 3 {
		t.Fatalf("primary holds %d steps after the partial fold, want 3", steps)
	}
	if fs := c.nodes[f].Stats(); fs.ReplicaApplied != 3 {
		t.Fatalf("follower applied %d bodies, want 3 (stats %+v)", fs.ReplicaApplied, fs)
	}

	c.kill(p)
	steps, after := c.mustForecast(third, sess, 7, 4)
	if steps != 3 || after != before {
		t.Fatalf("after failover: steps %d (want 3), forecast identical=%v", steps, after == before)
	}
	// The pending window 3 survived too: the next window seals it.
	if out := c.mustIngest(third, sess, 4, "local"); out.Steps != 5 {
		t.Fatalf("post-failover ingest steps %d, want 5", out.Steps)
	}
}

// TestClusterTornReplicationEveryOffset tears the replication stream at
// every interesting body offset — before the first byte, mid-frame, one
// short of complete, and exactly complete (delivered, but the sender saw a
// failure). The checksum rejects every partial body, the prober's resync
// installs the primary's state in its place, the sequence number skips
// that install where the whole body did arrive, and the follower converges
// to the primary's exact state.
func TestClusterTornReplicationEveryOffset(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "torn"
	p, f := c.placement(sess)
	third := c.other(p, f)
	_, ref := clusterModel(t)

	for step := 0; step < 5; step++ {
		body := chunkCSV(ref, step)
		offsets := []int{0, 1, len(body) / 2, len(body) - 1, len(body)}
		c.ft.Tear(c.hosts[f], offsets[step])
		// The torn send fails, so the primary acks local and the session
		// joins the follower's lagging set; the tear is one-shot, so the
		// resync's install goes through whole.
		c.mustIngest(p, sess, step, "local")
		c.waitReplicationDrained(p, 10*time.Second)
	}

	fs := c.nodes[f].Stats()
	if fs.ReplicaApplied != 5 {
		t.Fatalf("follower applied %d chunks or installs, want 5 (stats %+v)", fs.ReplicaApplied, fs)
	}
	if fs.ReplicaRejected < 4 {
		t.Fatalf("follower rejected %d torn bodies, want >= 4", fs.ReplicaRejected)
	}
	if fs.ReplicaSkipped < 1 {
		t.Fatal("full-length tear: the install of the delivered body's sequence should have been skipped")
	}

	_, before := c.mustForecast(p, sess, 11, 3)
	c.kill(p)
	steps, after := c.mustForecast(third, sess, 11, 3)
	if steps != 5 || after != before {
		t.Fatalf("failover after torn-stream recovery: steps %d (want 5), identical=%v", steps, after == before)
	}
}

func TestClusterDegradedAckLocalAndCatchUp(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "degraded"
	p, f := c.placement(sess)
	third := c.other(p, f)

	c.ft.SetRule(c.hosts[f], FaultRule{Partition: true})

	// Partitioned follower: the primary degrades to ack-local and the
	// replication-lag gauge counts the one session the follower lags on,
	// however many writes it missed.
	const writes = 20
	for step := 0; step < writes; step++ {
		c.mustIngest(p, sess, step, "local")
	}
	var lag ReplicatorStats
	for _, rs := range c.nodes[p].Stats().Replication {
		if rs.Peer == c.urls[f] {
			lag = rs
		}
	}
	if lag.QueueLen != 1 {
		t.Fatalf("replication-lag gauge: %+v, want 1 lagging session", lag)
	}
	if s := c.nodes[p].Stats(); s.AckLocal != writes {
		t.Fatalf("ack_local %d, want %d", s.AckLocal, writes)
	}

	// Heal: with no further write, the prober's resync installs the
	// primary's state on the follower, and acks go back to "replicated".
	c.ft.Heal(c.hosts[f])
	c.waitReplicationDrained(p, 10*time.Second)
	if got := c.heldSteps(f, sess); got != writes {
		t.Fatalf("follower holds %d steps after catch-up, want the primary's %d", got, writes)
	}
	c.waitPeerState(p, c.urls[f], "alive", 5*time.Second)
	c.mustIngest(p, sess, writes, "replicated")

	_, before := c.mustForecast(p, sess, 5, 3)
	c.kill(p)
	steps, after := c.mustForecast(third, sess, 5, 3)
	if steps != writes+1 || after != before {
		t.Fatalf("failover after catch-up: steps %d (want %d), identical=%v", steps, writes+1, after == before)
	}
}

// TestClusterResyncRacesWrites heals a partition while writes continue on
// every session the follower lags on, so the prober's resync and the
// writes' own installs run at once. Each session ends with the follower
// holding the primary's exact state and nothing left lagging.
func TestClusterResyncRacesWrites(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	_, ref := clusterModel(t)
	var sessions []string
	for i := 0; len(sessions) < 4; i++ {
		if name := fmt.Sprintf("race-%d", i); c.nodes[0].staticOwners(name)[0] == c.urls[0] {
			sessions = append(sessions, name)
		}
	}
	c.ft.SetRule(c.hosts[1], FaultRule{Partition: true})
	for _, sess := range sessions {
		c.mustIngest(0, sess, 0, "local")
	}
	c.ft.Heal(c.hosts[1])
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 1; step < 4; step++ {
				resp, err := http.Post(c.urls[0]+"/v1/ingest?session="+sess, "text/csv",
					strings.NewReader(chunkCSV(ref, step)))
				if err != nil {
					t.Errorf("ingest %s step %d: %v", sess, step, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest %s step %d: status %d", sess, step, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	c.waitReplicationDrained(0, 10*time.Second)
	for _, sess := range sessions {
		_, want := c.heldForecast(0, sess, 31, 2)
		if steps, got := c.heldForecast(1, sess, 31, 2); steps != 4 || got != want {
			t.Fatalf("%s on the follower: steps %d (want 4), identical to the primary=%v", sess, steps, got == want)
		}
	}
}

// TestClusterRestartedFollowerCatchesUp restarts a follower empty behind
// its old URL between two writes. Its peers never see it down, so the
// next write's body reaches a node that holds nothing: the follower must
// refuse to fold it onto an empty session, and the primary must install
// its state there, so that the follower promoted after the primary dies
// forecasts from every acknowledged step.
func TestClusterRestartedFollowerCatchesUp(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "restarted"
	p, f := c.placement(sess)
	third := c.other(p, f)

	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(p, sess, 1, "replicated")
	c.restart(f)
	c.mustIngest(p, sess, 2, "replicated")
	if got := c.heldSteps(f, sess); got != 3 {
		t.Fatalf("restarted follower holds %d steps, want 3", got)
	}

	_, before := c.mustForecast(p, sess, 19, 3)
	c.kill(p)
	steps, after := c.mustForecast(third, sess, 19, 3)
	if steps != 3 || after != before {
		t.Fatalf("promoted follower: steps %d (want 3), identical=%v", steps, after == before)
	}
}

// TestClusterFollowerMissingSessionGetsState deletes a session from its
// follower alone, so the follower holds the sequence before the next body
// but not the session. Folding that body would create a one-step session;
// the follower answers 409 instead and gets the primary's state.
func TestClusterFollowerMissingSessionGetsState(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "dropped"
	p, f := c.placement(sess)
	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(p, sess, 1, "replicated")
	req, _ := http.NewRequest(http.MethodDelete, c.urls[f]+"/v1/ingest?session="+sess, nil)
	req.Header.Set(server.HeaderForwarded, c.urls[f]) // this node's copy only
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete the follower's copy: %v (status %v)", err, resp)
	}
	resp.Body.Close()

	c.mustIngest(p, sess, 2, "replicated")
	_, want := c.heldForecast(p, sess, 29, 3)
	if steps, got := c.heldForecast(f, sess, 29, 3); steps != 3 || got != want {
		t.Fatalf("follower: steps %d (want 3), identical to the primary=%v", steps, got == want)
	}
}

// replicaRequest sends one replication request straight to node i, with
// the replica marker and the given headers, and returns the status.
func (c *testCluster) replicaRequest(i int, method, query string, body []byte, header map[string]string) int {
	c.t.Helper()
	req, _ := http.NewRequest(method, c.urls[i]+"/v1/ingest?"+query, bytes.NewReader(body))
	req.Header.Set(server.HeaderReplica, "1")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("replica %s to node %d: %v", method, i, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestClusterReplicaRequiresChecksumAndSequence: a replicated body without
// a checksum, or without a sequence number of at least 1, is refused with
// 400 before anything folds.
func TestClusterReplicaRequiresChecksumAndSequence(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	_, ref := clusterModel(t)
	body := []byte(chunkCSV(ref, 0))
	crc := bodyCRC(body)
	for _, tc := range []struct {
		name   string
		header map[string]string
	}{
		{"no checksum", map[string]string{server.HeaderRepSeq: "1"}},
		{"wrong checksum", map[string]string{server.HeaderBodyCRC: bodyCRC(body[1:]), server.HeaderRepSeq: "1"}},
		{"no sequence", map[string]string{server.HeaderBodyCRC: crc}},
		{"sequence 0", map[string]string{server.HeaderBodyCRC: crc, server.HeaderRepSeq: "0"}},
		{"negative sequence", map[string]string{server.HeaderBodyCRC: crc, server.HeaderRepSeq: "-1"}},
		{"unparsable sequence", map[string]string{server.HeaderBodyCRC: crc, server.HeaderRepSeq: "one"}},
	} {
		if status := c.replicaRequest(1, http.MethodPost, "session=unchecked", body, tc.header); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
	if got := c.nodes[1].Stats().ReplicaRejected; got != 6 {
		t.Errorf("replica_rejected %d, want 6", got)
	}
	if steps := c.heldSteps(1, "unchecked"); steps != 0 {
		t.Fatalf("a refused body folded: node holds %d steps", steps)
	}
	good := map[string]string{server.HeaderBodyCRC: crc, server.HeaderRepSeq: "1", server.HeaderCreated: "1"}
	if status := c.replicaRequest(1, http.MethodPost, "session=unchecked", body, good); status != http.StatusOK {
		t.Fatalf("well-formed body: status %d, want 200", status)
	}
}

// TestClusterInstallAtOrBelowHeldSequenceIsSkipped: a follower installs
// a sent state only past the sequence it holds. At or below it, the
// install is skipped and the follower's session is left as it was.
func TestClusterInstallAtOrBelowHeldSequenceIsSkipped(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "held"
	p, f := c.placement(sess)
	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(p, sess, 1, "replicated")
	_, before := c.heldForecast(f, sess, 23, 3)

	// A one-step state of another session, to install in place of sess.
	c.mustIngest(p, "other", 4, "")
	po, _ := c.placement("other")
	model, state, err := c.srvs[po].ExportSession("other")
	if err != nil {
		t.Fatal(err)
	}
	query := url.Values{"session": {sess}, "model": {model}}.Encode()
	for _, seq := range []string{"1", "2"} {
		if status := c.replicaRequest(f, http.MethodPut, query, state, map[string]string{
			server.HeaderBodyCRC: bodyCRC(state), server.HeaderRepSeq: seq}); status != http.StatusOK {
			t.Fatalf("install at held-or-lower sequence %s: status %d, want 200", seq, status)
		}
	}
	if got := c.nodes[f].Stats().ReplicaSkipped; got != 2 {
		t.Fatalf("replica_skipped %d, want 2", got)
	}
	if steps := c.heldSteps(f, sess); steps != 2 {
		t.Fatalf("follower holds %d steps after skipped installs, want 2", steps)
	}
	if _, after := c.heldForecast(f, sess, 23, 3); after != before {
		t.Fatal("a skipped install changed the follower's session")
	}
	// Past the held sequence the same request installs.
	if status := c.replicaRequest(f, http.MethodPut, query, state, map[string]string{
		server.HeaderBodyCRC: bodyCRC(state), server.HeaderRepSeq: "3"}); status != http.StatusOK {
		t.Fatalf("install past the held sequence: status %d, want 200", status)
	}
	if steps := c.heldSteps(f, sess); steps != 1 {
		t.Fatalf("follower holds %d steps after the install, want the installed 1", steps)
	}
}

func TestClusterDuplicateDeliveryFoldsOnce(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "dup"
	p, f := c.placement(sess)
	third := c.other(p, f)

	c.ft.SetRule(c.hosts[f], FaultRule{DuplicateNext: true})
	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(p, sess, 1, "replicated")

	fs := c.nodes[f].Stats()
	if fs.ReplicaApplied != 2 {
		t.Fatalf("follower applied %d, want 2 (duplicate must not double-fold)", fs.ReplicaApplied)
	}
	if fs.ReplicaSkipped != 1 {
		t.Fatalf("follower skipped %d, want exactly the 1 duplicated delivery", fs.ReplicaSkipped)
	}

	_, before := c.mustForecast(p, sess, 13, 3)
	c.kill(p)
	steps, after := c.mustForecast(third, sess, 13, 3)
	if steps != 2 || after != before {
		t.Fatalf("follower state diverged after duplicate delivery: steps %d, identical=%v", steps, after == before)
	}
}

func TestClusterDrainHandsSessionsOff(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	sess := "drained"
	p, f := c.placement(sess)
	third := c.other(p, f)

	c.mustIngest(third, sess, 0, "replicated")
	c.mustIngest(third, sess, 1, "replicated")
	_, before := c.mustForecast(third, sess, 9, 3)

	c.nodes[p].Drain(2 * time.Second)

	// /metrics says which node is handing off.
	if got := c.scrape(p); !strings.Contains(got, "\nvrdag_cluster_draining 1\n") {
		t.Fatalf("draining node's scrape lacks vrdag_cluster_draining 1:\n%s", got)
	}
	if got := c.scrape(third); !strings.Contains(got, "\nvrdag_cluster_draining 0\n") {
		t.Fatalf("serving node's scrape lacks vrdag_cluster_draining 0:\n%s", got)
	}

	// The draining node's healthz flips to 503/"draining" so peers route
	// around it without counting it dead.
	resp, err := http.Get(c.urls[p] + "/healthz")
	if err != nil {
		t.Fatalf("healthz on draining node: %v", err)
	}
	var health server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("draining healthz: status %d %q", resp.StatusCode, health.Status)
	}
	c.waitPeerState(third, c.urls[p], "draining", 5*time.Second)

	// The drained node still answers — by proxying its sessions to the
	// follower, which now acts as primary.
	steps, after := c.mustForecast(p, sess, 9, 3)
	if steps != 2 || after != before {
		t.Fatal("forecast through the draining node must be served, unchanged, by the follower")
	}
	out := c.mustIngest(p, sess, 2, "")
	if out.Steps != 3 {
		t.Fatalf("ingest through draining node: steps %d, want 3", out.Steps)
	}
	if steps, _ := c.mustForecast(third, sess, 9, 3); steps != 3 {
		t.Fatalf("steps after drain handoff %d, want 3", steps)
	}
}

func TestClusterSingleNodeActsStandalone(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	out := c.mustIngest(0, "solo", 0, "local") // nothing to replicate to
	if out.Steps != 1 {
		t.Fatalf("steps %d, want 1", out.Steps)
	}
	if steps, _ := c.mustForecast(0, "solo", 3, 2); steps != 1 {
		t.Fatalf("forecast steps %d, want 1", steps)
	}
}

// TestClusterMirroredSessionsDoNotStall writes two sessions with mirrored
// placement at once — X primary on A with its follower on B, Y the
// reverse — and delays both hosts, so each replica lands while the other
// primary is still inside its own write. The names share a hash bucket
// mod 64, where a striped lock array would make the two writes wait on
// each other; one ordering entry per session lets both replicate at once.
func TestClusterMirroredSessionsDoNotStall(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	var x, y string
	byPrimary := [2]map[uint64]string{{}, {}} // primary index → bucket → first name
	for i := 0; ; i++ {
		name := fmt.Sprintf("mirror-%d", i)
		bucket := hashKey(name) % 64
		p, _ := c.placement(name)
		if other, ok := byPrimary[1-p][bucket]; ok {
			x, y = other, name
			break
		}
		if _, ok := byPrimary[p][bucket]; !ok {
			byPrimary[p][bucket] = name
		}
	}
	a, b := c.placement(x)
	if pa, pb := c.placement(y); pa != b || pb != a {
		t.Fatalf("placement not mirrored: %s on %d→%d, %s on %d→%d", x, a, b, y, pa, pb)
	}

	const delay = 200 * time.Millisecond
	c.ft.SetRule(c.hosts[a], FaultRule{Delay: delay})
	c.ft.SetRule(c.hosts[b], FaultRule{Delay: delay})
	writes := []struct {
		via  int
		sess string
	}{{a, x}, {b, y}}
	_, ref := clusterModel(t)
	statuses, acks := make([]int, len(writes)), make([]string, len(writes))
	start := time.Now()
	var wg sync.WaitGroup
	for i, wr := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(c.urls[wr.via]+"/v1/ingest?session="+wr.sess, "text/csv",
				strings.NewReader(chunkCSV(ref, 0)))
			if err != nil {
				t.Errorf("ingest %s: %v", wr.sess, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i], acks[i] = resp.StatusCode, resp.Header.Get(server.HeaderAck)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range writes {
		if statuses[i] != http.StatusOK || acks[i] != "replicated" {
			t.Fatalf("mirrored writes %s, %s: statuses %v acks %v after %v, want 200 replicated",
				x, y, statuses, acks, elapsed)
		}
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("mirrored writes took %v, want < 2s", elapsed)
	}
	t.Logf("mirrored writes %s, %s acked replicated in %v", x, y, elapsed)
}

// TestClusterSlowFollowerAcksLocalBeforeProxyTimeout: a follower slower
// than the proxy's response-header deadline must cost the client a
// degraded local ack, not a 502 for a write the primary applied. A replica
// send gets half of HeaderTimeout, so the primary answers first.
func TestClusterSlowFollowerAcksLocalBeforeProxyTimeout(t *testing.T) {
	c := newTestCluster(t, 3, func(_ int, cfg *Config) { cfg.HeaderTimeout = time.Second })
	sess := "slow-follower"
	p, f := c.placement(sess)
	third := c.other(p, f)

	c.ft.SetRule(c.hosts[f], FaultRule{Delay: 1500 * time.Millisecond})
	start := time.Now()
	status, ack, out := c.ingest(third, sess, 0)
	if status != http.StatusOK || ack != "local" {
		t.Fatalf("ingest through node %d with a silent follower: status %d ack %q after %v, want 200 local",
			third, status, ack, time.Since(start))
	}
	if out.Steps != 1 {
		t.Fatalf("steps %d, want 1", out.Steps)
	}
	t.Logf("acked local in %v", time.Since(start))
}

// TestClusterThreeReplicasShareOneSequence pins one replication sequence
// per ingest at Replicas=3: the primary sends the same number to both
// followers, so the follower promoted after a kill continues the other
// follower's stream — its ingest is applied there, not skipped as a
// duplicate — and the two survivors forecast identically.
func TestClusterThreeReplicasShareOneSequence(t *testing.T) {
	c := newTestCluster(t, 3, func(_ int, cfg *Config) { cfg.Replicas = 3 })
	sess := "three"
	owners := c.nodes[0].staticOwners(sess)
	if len(owners) != 3 {
		t.Fatalf("want 3 owners, got %v", owners)
	}
	p, f1, f2 := c.index(owners[0]), c.index(owners[1]), c.index(owners[2])

	c.mustIngest(p, sess, 0, "replicated")
	c.mustIngest(p, sess, 1, "replicated")
	c.kill(p)
	c.waitPeerState(f1, c.urls[p], "down", 5*time.Second)
	c.waitPeerState(f2, c.urls[p], "down", 5*time.Second)

	// The promoted follower's copy toward the dead node queues: ack local.
	c.mustIngest(f1, sess, 2, "local")
	if fs := c.nodes[f2].Stats(); fs.ReplicaApplied != 3 || fs.ReplicaSkipped != 0 {
		t.Fatalf("remaining follower: applied %d skipped %d, want 3 and 0", fs.ReplicaApplied, fs.ReplicaSkipped)
	}

	steps, before := c.mustForecast(f1, sess, 17, 3)
	if steps != 3 {
		t.Fatalf("promoted primary: steps %d, want 3", steps)
	}
	c.kill(f1)
	c.waitPeerState(f2, c.urls[f1], "down", 5*time.Second)
	if steps, after := c.mustForecast(f2, sess, 17, 3); steps != 3 || after != before {
		t.Fatalf("last survivor: steps %d (want 3), identical=%v", steps, after == before)
	}
}

// TestClusterChaosKillDuringTraffic is the chaos smoke: concurrent
// multi-session ingest across every node while one node is killed
// mid-wave. Every acknowledged chunk must survive into the failover state:
// each session's post-chaos forecast is compared byte-for-byte against a
// single standalone server fed the same acknowledged bodies in the same
// order.
func TestClusterChaosKillDuringTraffic(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	m, ref := clusterModel(t)

	refSrv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := refSrv.Register("email", m, ref); err != nil {
		t.Fatalf("register reference: %v", err)
	}
	refTS := httptest.NewServer(refSrv)
	t.Cleanup(func() { refTS.Close(); refSrv.Close() })

	const sessions, waves = 5, 4
	victim := 1
	sessName := func(i int) string { return fmt.Sprintf("chaos-%d", i) }

	for wave := 0; wave < waves; wave++ {
		if wave == 2 {
			// kill -9 the victim concurrently with the wave: in-flight
			// requests complete, new connections are refused and fail over.
			go c.kill(victim)
		}
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i, wave int) {
				defer wg.Done()
				via := (i + wave) % len(c.urls)
				if wave >= 2 && via == victim {
					via = (via + 1) % len(c.urls)
				}
				status, _, _ := c.ingest(via, sessName(i), wave)
				if status != http.StatusOK {
					errs <- fmt.Errorf("session %s wave %d via node %d: status %d", sessName(i), wave, via, status)
				}
			}(i, wave)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// Feed the reference server the same acknowledged bodies in the same
	// per-session order, then demand byte-identical forecasts from the
	// survivors.
	survivor := c.other(victim)
	for i := 0; i < sessions; i++ {
		for wave := 0; wave < waves; wave++ {
			resp, err := http.Post(refTS.URL+"/v1/ingest?session="+sessName(i), "text/csv",
				strings.NewReader(chunkCSV(ref, wave)))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("reference ingest %s wave %d: %v (status %d)", sessName(i), wave, err, resp.StatusCode)
			}
			resp.Body.Close()
		}
		seed := int64(100 + i)
		_, wantSteps, want := forecastAt(t, refTS.URL, sessName(i), seed, 3)
		if wantSteps != waves {
			t.Fatalf("reference %s: steps %d, want %d", sessName(i), wantSteps, waves)
		}
		status, steps, got := forecastAt(t, c.urls[survivor], sessName(i), seed, 3)
		if status != http.StatusOK {
			t.Fatalf("post-chaos forecast %s: status %d: %s", sessName(i), status, got)
		}
		if steps != waves || got != want {
			t.Fatalf("session %s diverged after chaos: steps %d (want %d), identical=%v",
				sessName(i), steps, waves, got == want)
		}
	}
}
