package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Peer liveness: every node probes its peers' /healthz on a fixed
// interval and runs each through a small state machine:
//
//	alive ──failure──▶ suspect ──DownAfter consecutive failures──▶ down
//	  ▲                   │                                          │
//	  └────── success ────┴────────────── success ───────────────────┘
//
// A suspect peer is still routable — one dropped probe must not reshuffle
// session placement — while a down peer is skipped by the placement ring,
// which is what promotes its replicas. Down peers are re-probed on an
// exponential backoff (doubling from the base interval up to MaxBackoff)
// so a dead node costs a bounded trickle of probes rather than a steady
// drumbeat, and any successful contact snaps the peer straight back to
// alive. Proxy attempts feed the same state machine through ReportFailure
// and ReportSuccess, so a refused connection is detected at traffic speed
// instead of waiting for the next probe tick.
//
// A peer answering its probe with status "draining" is healthy but
// leaving: it is marked draining and excluded from routing immediately, so
// its sessions fail over to their replicas before the process exits.

// PeerState is one peer's position in the probe state machine.
type PeerState int

const (
	StateAlive PeerState = iota
	StateSuspect
	StateDown
	StateDraining
)

func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// PeerHealth is one peer's externally visible probe state, reported on
// /healthz.
type PeerHealth struct {
	Peer     string  `json:"peer"`
	State    string  `json:"state"`
	Failures int     `json:"failures,omitempty"`
	LastErr  string  `json:"last_err,omitempty"`
	SinceS   float64 `json:"since_s"` // seconds in the current state
}

// MembershipConfig tunes the prober; zero values select the defaults.
type MembershipConfig struct {
	ProbeInterval time.Duration // base probe period (default 1s)
	ProbeTimeout  time.Duration // per-probe HTTP timeout (default 1s)
	MaxBackoff    time.Duration // probe backoff cap for down peers (default 30s)
	DownAfter     int           // consecutive failures before down (default 3)
}

func (c *MembershipConfig) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
}

// Membership tracks the liveness of a fixed peer set. Create with
// NewMembership, call Start to launch the probe loop, Stop to end it.
type Membership struct {
	cfg    MembershipConfig
	peers  []string
	client *http.Client

	mu sync.Mutex
	st map[string]*peerStatus

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// reached, when set before Start, runs after each probe that finds a
	// peer alive.
	reached func(peer string)
}

type peerStatus struct {
	state     PeerState
	failures  int
	backoff   time.Duration
	nextProbe time.Time
	lastErr   string
	since     time.Time
}

// NewMembership builds the tracker for peers (base URLs, self excluded).
// transport is the wire the probes go over; tests inject a FaultTransport
// so partitions take probes down with the traffic.
func NewMembership(peers []string, cfg MembershipConfig, transport http.RoundTripper) *Membership {
	cfg.defaults()
	if transport == nil {
		transport = http.DefaultTransport
	}
	m := &Membership{
		cfg:    cfg,
		peers:  append([]string(nil), peers...),
		client: &http.Client{Transport: transport, Timeout: cfg.ProbeTimeout},
		st:     make(map[string]*peerStatus, len(peers)),
		stop:   make(chan struct{}),
	}
	now := time.Now()
	for _, p := range m.peers {
		// Optimistic start: peers begin alive so a cluster boots without
		// waiting a probe round before routing.
		m.st[p] = &peerStatus{state: StateAlive, since: now}
	}
	return m
}

// Start launches the background probe loop.
func (m *Membership) Start() {
	m.wg.Add(1)
	go m.probeLoop()
}

// Stop ends the probe loop and waits for in-flight probes.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *Membership) probeLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.probeDue(now)
		}
	}
}

// probeDue probes, in parallel, every peer whose backoff has elapsed.
func (m *Membership) probeDue(now time.Time) {
	var due []string
	m.mu.Lock()
	for _, p := range m.peers {
		if !now.Before(m.st[p].nextProbe) {
			due = append(due, p)
		}
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range due {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			m.probeOne(p)
		}(p)
	}
	wg.Wait()
}

// probeOne performs one health probe and feeds the result into the state
// machine. A 503 whose body still parses as a draining health report
// counts as draining, not as a failure — the peer is alive and asking for
// its traffic to move.
func (m *Membership) probeOne(peer string) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		m.ReportFailure(peer, err)
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		m.ReportFailure(peer, err)
		return
	}
	var health struct {
		Status string `json:"status"`
	}
	derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&health)
	resp.Body.Close()
	switch {
	case derr == nil && health.Status == "draining":
		m.markDraining(peer)
	case resp.StatusCode == http.StatusOK:
		m.ReportSuccess(peer)
		if m.reached != nil {
			m.reached(peer)
		}
	default:
		m.ReportFailure(peer, fmt.Errorf("healthz status %d", resp.StatusCode))
	}
}

// ReportSuccess snaps a peer back to alive; called by the probe loop and
// by the router after any successful proxy hop.
func (m *Membership) ReportSuccess(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.st[peer]
	if !ok {
		return
	}
	if st.state != StateAlive {
		st.since = time.Now()
	}
	st.state = StateAlive
	st.failures = 0
	st.backoff = 0
	st.nextProbe = time.Time{}
	st.lastErr = ""
}

// ReportFailure counts one failed contact (probe or proxy hop) against a
// peer, advancing alive→suspect→down and growing the down-state probe
// backoff exponentially up to MaxBackoff.
func (m *Membership) ReportFailure(peer string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.st[peer]
	if !ok {
		return
	}
	st.failures++
	if err != nil {
		st.lastErr = err.Error()
	}
	prev := st.state
	switch {
	case st.failures >= m.cfg.DownAfter:
		st.state = StateDown
	default:
		st.state = StateSuspect
	}
	if st.state != prev {
		st.since = time.Now()
	}
	if st.state == StateDown {
		if st.backoff == 0 {
			st.backoff = m.cfg.ProbeInterval
		} else {
			st.backoff *= 2
		}
		if st.backoff > m.cfg.MaxBackoff {
			st.backoff = m.cfg.MaxBackoff
		}
		st.nextProbe = time.Now().Add(st.backoff)
	}
}

func (m *Membership) markDraining(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.st[peer]
	if !ok {
		return
	}
	if st.state != StateDraining {
		st.since = time.Now()
	}
	st.state = StateDraining
	st.failures = 0
	st.backoff = 0
	st.nextProbe = time.Time{}
}

// State returns a peer's current state (StateDown for unknown peers).
func (m *Membership) State(peer string) PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.st[peer]; ok {
		return st.state
	}
	return StateDown
}

// Routable reports whether the router may send session traffic to peer:
// alive and suspect peers are routable, down and draining ones are not.
func (m *Membership) Routable(peer string) bool {
	s := m.State(peer)
	return s == StateAlive || s == StateSuspect
}

// Snapshot renders every peer's probe state for /healthz and Stats.
func (m *Membership) Snapshot() []PeerHealth {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerHealth, 0, len(m.peers))
	for _, p := range m.peers {
		st := m.st[p]
		out = append(out, PeerHealth{
			Peer:     p,
			State:    st.state.String(),
			Failures: st.failures,
			LastErr:  st.lastErr,
			SinceS:   now.Sub(st.since).Seconds(),
		})
	}
	return out
}
