package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// Cluster observability: the trace fan-out behind GET /v1/trace?id= and
// the Prometheus families the node hangs off the local server's /metrics
// through SetPromHook.

// queryTrace answers GET /v1/trace?id= cluster-wide. A proxied or
// replicated request leaves one trace per node it touched, all sharing
// the client-visible ID; this merges the local tracer's copies with
// every reachable peer's, each view stamped with the node that recorded
// it, ordered by start time. The ID is query-encoded on the peer hop, so
// whatever the client sent stays one value there.
func (n *Node) queryTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	views := n.local.Tracer().ByID(id)
	for i := range views {
		views[i].Node = n.cfg.Self
	}
	target := "/v1/trace?" + url.Values{"id": {id}}.Encode()
	n.eachPeer(r.Context(), http.MethodGet, target, func(peer string, resp *http.Response) error {
		if resp.StatusCode == http.StatusNotFound {
			return nil // the request never touched that peer
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		var body server.TraceQueryResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
			return err
		}
		for i := range body.Traces {
			if body.Traces[i].Node == "" {
				body.Traces[i].Node = peer
			}
		}
		views = append(views, body.Traces...)
		return nil
	})
	if len(views) == 0 {
		n.writeError(w, http.StatusNotFound, "no retained trace %q on any reachable node", id)
		return
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Start.Before(views[j].Start) })
	n.writeJSON(w, http.StatusOK, server.TraceQueryResponse{
		Stats:  n.local.Tracer().Stats(),
		Traces: views,
	})
}

// renderProm appends the cluster families to the local /metrics
// exposition. Per-peer series are sorted by peer URL so the rendering is
// deterministic.
func (n *Node) renderProm(e *obs.Expo) {
	e.Family("vrdag_cluster_info", "Cluster identity (value is always 1; self is the label).", "gauge")
	e.Int("vrdag_cluster_info", []obs.L{{K: "self", V: n.cfg.Self}}, 1)
	draining := int64(0)
	if n.draining.Load() {
		draining = 1
	}
	e.Family("vrdag_cluster_draining", "Whether this node is handing its sessions to replicas (set ahead of vrdag_up going 0).", "gauge")
	e.Int("vrdag_cluster_draining", nil, draining)
	e.Family("vrdag_cluster_proxied_total", "Session requests proxied to a peer owner.", "counter")
	e.Int("vrdag_cluster_proxied_total", nil, n.proxied.Load())
	e.Family("vrdag_cluster_proxy_retries_total", "Proxy attempts beyond the first owner.", "counter")
	e.Int("vrdag_cluster_proxy_retries_total", nil, n.proxyRetries.Load())
	e.Family("vrdag_cluster_acks_total", "Ingest acknowledgements, by durability scope.", "counter")
	e.Int("vrdag_cluster_acks_total", []obs.L{{K: "scope", V: "local"}}, n.ackLocal.Load())
	e.Int("vrdag_cluster_acks_total", []obs.L{{K: "scope", V: "replicated"}}, n.ackReplicated.Load())
	e.Family("vrdag_cluster_replica_applied_total", "Replicated ingest bodies folded and session states installed on this follower.", "counter")
	e.Int("vrdag_cluster_replica_applied_total", nil, n.replicaApplied.Load())
	e.Family("vrdag_cluster_replica_skipped_total", "Duplicate replication deliveries dropped by sequence.", "counter")
	e.Int("vrdag_cluster_replica_skipped_total", nil, n.replicaSkipped.Load())
	e.Family("vrdag_cluster_replica_rejected_total", "Replication requests rejected by checksum, sequence, size or decoding.", "counter")
	e.Int("vrdag_cluster_replica_rejected_total", nil, n.replicaRejected.Load())

	stats := n.replicationStats()
	perPeer := func(name, help, typ string, v func(ReplicatorStats) int64) {
		e.Family(name, help, typ)
		for _, st := range stats {
			e.Int(name, []obs.L{{K: "peer", V: st.Peer}}, v(st))
		}
	}
	perPeer("vrdag_cluster_replication_lagging_sessions", "Sessions a peer may not hold in full until it is caught up (0 = caught up).", "gauge",
		func(st ReplicatorStats) int64 { return int64(st.QueueLen) })
	perPeer("vrdag_cluster_replication_sent_total", "Replicated bodies and session installs confirmed, by peer.", "counter",
		func(st ReplicatorStats) int64 { return st.Sent })
	perPeer("vrdag_cluster_replication_failed_total", "Replication requests that errored or were rejected, by peer.", "counter",
		func(st ReplicatorStats) int64 { return st.Failed })
	perPeer("vrdag_cluster_peer_routable", "Whether the membership probe currently routes to a peer.", "gauge",
		func(st ReplicatorStats) int64 {
			if n.members.Routable(st.Peer) {
				return 1
			}
			return 0
		})
}
