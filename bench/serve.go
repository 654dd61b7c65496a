package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vrdag/internal/cluster"
	"vrdag/internal/core"
	"vrdag/internal/dyngraph"
	"vrdag/internal/ingest"
	"vrdag/internal/obs"
	"vrdag/internal/server"
)

const modelName = "email"

// proxyHeaderTimeout is how long a cluster node waits for the node it
// proxied an op to. It must outlast that node's wait for a replica
// (cluster.Config.ReplicateTimeout, 5 s) for the local ack that follows a
// replica's silence to reach the client; at the default, 5 s as well, the
// proxy gives up first and the client gets a 502. See "Known defect" in
// README.md: two writes can hold each other up for those 5 s.
const proxyHeaderTimeout = 12 * time.Second

// member is one server process stand-in: its own server, data directory
// and loopback listener, and in cluster mode its own cluster node.
type member struct {
	name string
	url  string
	srv  *server.Server
	node *cluster.Node // nil on the single-node rig
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned
}

// serveRig is session_rw (one member) or cluster_rw (three).
type serveRig struct {
	ordinal int
	members []*member
	ring    *cluster.Ring   // nil on the single-node rig
	peers   *http.Transport // what cluster nodes talk to each other over
	callers []*http.Client
	model   *core.Model
	bodies  [][]byte // bodies[k] is window k of the replayed replica, one ingest's body
	dataDir string
	sp      *spec
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// windowBodies renders the replica as ingest bodies: body k carries
// exactly window k (the replica's snapshot k mod T, stamped t=k) as CSV
// records src,dst,t,x1..xF with the source node's attributes.
func windowBodies(g *dyngraph.Sequence, n int) [][]byte {
	bodies := make([][]byte, n)
	for k := range bodies {
		s := g.At(k % g.T())
		var b []byte
		for u := 0; u < g.N; u++ {
			for _, v := range s.Out[u] {
				b = append(b, 'n')
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, ",n"...)
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(k), 10)
				for j := 0; j < g.F; j++ {
					b = append(b, ',')
					b = strconv.AppendFloat(b, s.X.At(u, j), 'f', 4, 64)
				}
				b = append(b, '\n')
			}
		}
		bodies[k] = b
	}
	return bodies
}

func setupSingle(sp *spec, seed int64, o rigOpts) (rig, error)  { return setupServe(sp, seed, o, 1) }
func setupCluster(sp *spec, seed int64, o rigOpts) (rig, error) { return setupServe(sp, seed, o, 3) }

func setupServe(sp *spec, seed int64, o rigOpts, nodes int) (_ *serveRig, err error) {
	m, g, err := smallModel(seed)
	if err != nil {
		return nil, err
	}
	r := &serveRig{ordinal: o.ordinal, model: m, sp: sp, bodies: windowBodies(g, sp.primaries)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	if r.dataDir, err = os.MkdirTemp("out", sp.name+"-data-"); err != nil {
		return nil, err
	}

	// Listeners first, so every node knows every peer's URL before any
	// node is built.
	listeners := make([]net.Listener, nodes)
	defer func() {
		for _, ln := range listeners {
			if ln != nil { // not handed to a server yet
				ln.Close()
			}
		}
	}()
	urls := make([]string, nodes)
	for i := range listeners {
		if listeners[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		urls[i] = "http://" + listeners[i].Addr().String()
		r.members = append(r.members, &member{name: "node" + strconv.Itoa(i), url: urls[i]})
	}
	if nodes > 1 {
		r.ring = cluster.NewRing(urls)
		r.peers = &http.Transport{MaxIdleConnsPerHost: 8}
	}
	for i, mb := range r.members {
		cfg := server.Config{DataDir: filepath.Join(r.dataDir, mb.name), Logger: quiet}
		if o.tracer != nil {
			cfg.Tracer = o.tracer()
		}
		mb.srv = server.New(cfg)
		if err := mb.srv.Register(modelName, m, g); err != nil {
			return nil, err
		}
		var h http.Handler = mb.srv
		if nodes > 1 {
			if mb.node, err = cluster.NewNode(mb.srv, cluster.Config{
				Self: mb.url, Peers: urls, Transport: r.peers, Logger: quiet,
				HeaderTimeout: proxyHeaderTimeout,
			}); err != nil {
				return nil, err
			}
			h = mb.node
		}
		mb.hs = &http.Server{Handler: h}
		mb.done = make(chan struct{})
		go func(ln net.Listener) {
			defer close(mb.done)
			_ = mb.hs.Serve(ln) // returns ErrServerClosed on close
		}(listeners[i])
		listeners[i] = nil
	}
	for range sp.callers {
		r.callers = append(r.callers, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}})
	}
	if err := r.converged(); err != nil {
		return nil, err
	}
	if err := r.warmUp(seed); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// converged waits until every node answers /healthz and reports every
// peer alive: the membership view the timed ops are routed by.
func (r *serveRig) converged() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, mb := range r.members {
		for {
			var h struct {
				Status string               `json:"status"`
				Peers  []cluster.PeerHealth `json:"peers"`
			}
			resp, err := r.callers[0].Get(mb.url + "/healthz")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&h)
				resp.Body.Close()
			}
			ok := err == nil && h.Status == "ok" && len(h.Peers) == len(r.members)-1
			for _, p := range h.Peers {
				ok = ok && p.State == cluster.StateAlive.String()
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never converged (last error %v, status %q)", mb.name, err, h.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// sessionName names a session: the same for the same set-up, round,
// caller and index, and new every round.
func (r *serveRig) sessionName(round, caller, sess int) string {
	return fmt.Sprintf("u%d-r%d-c%d-s%d", r.ordinal, round, caller, sess)
}

// entry is the node an op enters through: round-robin by op index, as for
// a client that does not know the ring.
func (r *serveRig) entry(index int) *member { return r.members[index%len(r.members)] }

// local reports whether an op entered at its session's acting primary.
func (r *serveRig) local(round, caller, index int, o op) bool {
	if r.ring == nil {
		return true
	}
	return r.ring.Owners(r.sessionName(round, caller, o.sess), 1, nil)[0] == r.entry(index).url
}

// post sends one request as caller and reads the whole reply.
func (r *serveRig) post(rec *recorder, parent, caller int, method, url, ctype, traceID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if traceID != "" {
		req.Header.Set(obs.Header, traceID)
	}
	id := rec.begin("http.roundtrip", parent)
	resp, err := r.callers[caller].Do(req)
	rec.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = rec.begin("http.read_body", parent)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	return resp.StatusCode, data, err
}

// ingestReply and forecastReply are the parts of the replies the checks read.
type ingestReply struct {
	Absorbed int `json:"absorbed"`
	Steps    int `json:"steps"`
}

type forecastReply struct {
	Steps    int `json:"steps"`
	Sequence struct {
		Snapshots []json.RawMessage `json:"snapshots"`
	} `json:"sequence"`
}

func (r *serveRig) ingest(rec *recorder, parent, caller int, base, session, traceID string, k int) error {
	status, data, err := r.post(rec, parent, caller, http.MethodPost,
		base+"/v1/ingest?session="+session, "text/csv", traceID, r.bodies[k])
	if err != nil {
		return err
	}
	id := rec.begin("bench.check", parent)
	defer rec.end(id)
	if status != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %.400s", status, data)
	}
	var reply ingestReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return fmt.Errorf("ingest: decode reply: %w", err)
	}
	if reply.Absorbed != 1 || reply.Steps != k+1 {
		return fmt.Errorf("ingest of window %d absorbed %d, session at %d steps", k, reply.Absorbed, reply.Steps)
	}
	return nil
}

func (r *serveRig) forecast(rec *recorder, parent, caller int, base, session, traceID string, seed int64) ([]byte, error) {
	body := fmt.Sprintf(`{"session":%q,"t":%d,"seed":%d}`, session, forecastT, seed)
	status, data, err := r.post(rec, parent, caller, http.MethodPost,
		base+"/v1/forecast", "application/json", traceID, []byte(body))
	if err != nil {
		return nil, err
	}
	id := rec.begin("bench.check", parent)
	defer rec.end(id)
	if status != http.StatusOK {
		return nil, fmt.Errorf("forecast: status %d: %.400s", status, data)
	}
	var reply forecastReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, fmt.Errorf("forecast: decode reply: %w", err)
	}
	if len(reply.Sequence.Snapshots) != forecastT || reply.Steps == 0 {
		return nil, fmt.Errorf("forecast: %d snapshots after %d steps in %d bytes, want %d snapshots",
			len(reply.Sequence.Snapshots), reply.Steps, len(data), forecastT)
	}
	return data, nil
}

func (r *serveRig) do(rec *recorder, parent int, round, caller, index int, o op) error {
	traceID := ""
	if rec != nil {
		traceID = opID(round, caller, index)
	}
	base, session := r.entry(index).url, r.sessionName(round, caller, o.sess)
	if o.kind == primary {
		return r.ingest(rec, parent, caller, base, session, traceID, o.k)
	}
	_, err := r.forecast(rec, parent, caller, base, session, traceID, o.seed)
	return err
}

// endRound deletes the round's sessions, so every round starts from none
// and the servers' session tables and data directories stay flat.
func (r *serveRig) endRound(round int) error {
	for c := range r.callers {
		for s := 0; s < r.sp.sessions; s++ {
			if err := r.drop(r.sessionName(round, c, s)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *serveRig) drop(session string) error {
	status, data, err := r.post(nil, 0, 0, http.MethodDelete,
		r.members[0].url+"/v1/ingest?session="+session, "", "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %.400s", session, status, data)
	}
	return nil
}

// warmUp runs the fully checked ops: four writes and a forecast on one
// session. Every reply is decoded; the forecast is validated, must repeat
// byte for byte at the same seed, and must equal what the core API gives
// for the same windows and seed with no server in between. That last check
// is the same on one node and on three, which is the failover contract:
// where a session lives does not change what it forecasts.
func (r *serveRig) warmUp(seed int64) error {
	session := fmt.Sprintf("u%d-warm", r.ordinal)
	for k := 0; k < warmPrimary; k++ {
		if err := r.ingest(nil, 0, 0, r.entry(k).url, session, "", k); err != nil {
			return err
		}
	}
	var seqs [2]json.RawMessage
	for i := range seqs {
		data, err := r.forecast(nil, 0, 0, r.entry(i).url, session, "", seed)
		if err != nil {
			return err
		}
		var reply struct {
			Sequence json.RawMessage `json:"sequence"`
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			return err
		}
		seqs[i] = reply.Sequence
	}
	if !bytes.Equal(seqs[0], seqs[1]) {
		return errors.New("the same forecast seed gave different bytes")
	}
	var seq dyngraph.Sequence
	if err := json.Unmarshal(seqs[0], &seq); err != nil {
		return fmt.Errorf("decode forecast: %w", err)
	}
	if err := seq.Validate(); err != nil {
		return fmt.Errorf("forecast invalid: %w", err)
	}
	st, err := encodeWindows(r.model, r.bodies[:warmPrimary])
	if err != nil {
		return err
	}
	defer st.Release()
	want, err := forecastJSON(r.model, st, seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(seqs[0], want) {
		return errors.New("served forecast differs from the core API's for the same windows and seed")
	}
	return r.drop(session)
}

// encodeWindows folds ingest bodies into a fresh forecast state through
// the ingest and core APIs directly, with the stream options a server
// session uses.
func encodeWindows(m *core.Model, bodies [][]byte) (*core.ForecastState, error) {
	stream, err := ingest.NewStream(ingest.Options{N: m.Cfg.N, F: m.Cfg.F, Window: 1, CarryAttrs: true, Pooled: true})
	if err != nil {
		return nil, err
	}
	st := m.NewForecastState()
	emit := func(s *dyngraph.Snapshot) error {
		err := m.EncodeSnapshot(st, s)
		s.Recycle()
		return err
	}
	for _, b := range bodies {
		if err := stream.Fold(bytes.NewReader(b), emit); err == nil {
			err = stream.Flush(emit)
		}
		if err != nil {
			st.Release()
			return nil, err
		}
	}
	return st, nil
}

// forecastJSON forecasts as the server does and renders the sequence as
// the server's reply carries it.
func forecastJSON(m *core.Model, st *core.ForecastState, seed int64) ([]byte, error) {
	seq, err := m.Forecast(context.Background(), st, core.GenOptions{
		T: forecastT, Source: rand.NewSource(seed), Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(seq)
}

func (r *serveRig) close() {
	for _, mb := range r.members {
		if mb.hs != nil {
			mb.hs.Close()
			<-mb.done
		}
	}
	for _, mb := range r.members {
		if mb.node != nil {
			mb.node.Close()
		}
		if mb.srv != nil {
			mb.srv.Close()
		}
	}
	for _, c := range r.callers {
		c.CloseIdleConnections()
	}
	if r.peers != nil {
		r.peers.CloseIdleConnections()
	}
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}
