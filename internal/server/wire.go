package server

import (
	"vrdag/internal/dyngraph"
	"vrdag/internal/obs"
)

// GenerateRequest is the body of POST /v1/generate.
type GenerateRequest struct {
	// Model names a registered model (required when more than one model is
	// registered; defaults to the single registered model otherwise).
	Model string `json:"model,omitempty"`
	// T is the number of snapshots to sample (required, 1..MaxT).
	T int `json:"t"`
	// Seed pins the random stream for reproducibility. When omitted the
	// server draws a fresh seed and reports it in the response.
	Seed *int64 `json:"seed,omitempty"`
	// DynamicNodes enables the node add/delete extension (§III-H).
	DynamicNodes bool `json:"dynamic_nodes,omitempty"`
}

// StreamHeader is the first NDJSON line of POST /v1/generate/stream and
// POST /v1/forecast/stream. It carries everything a client needs to
// pre-size decoding of the snapshot lines that follow; Session and Steps
// are set only on the forecast endpoint.
type StreamHeader struct {
	Model   string `json:"model"`
	Session string `json:"session,omitempty"` // forecast stream: source session
	Steps   int    `json:"steps,omitempty"`   // forecast stream: observed steps conditioned on
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	F       int    `json:"f"`
	T       int    `json:"t"` // requested horizon; the trailer reports how many were emitted
}

// StreamSnapshot is one per-timestep NDJSON line of the streaming
// endpoint: the snapshot index plus the same edge/attribute payload a
// sequence snapshot carries in the buffered JSON format.
type StreamSnapshot struct {
	T     int         `json:"t"`
	Edges [][2]int    `json:"edges"`
	X     [][]float64 `json:"x,omitempty"`
}

// StreamTrailer is the final NDJSON line of the streaming endpoint. Done
// is true iff all T snapshots were emitted; Truncated names the reason
// for a graceful early stop (e.g. "server draining"); Error reports a
// mid-stream generation failure. Exactly one of the three shapes appears.
type StreamTrailer struct {
	Done      bool    `json:"done"`
	Emitted   int     `json:"emitted"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Truncated string  `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// IngestResponse is the body of a successful POST /v1/ingest: the
// session's cumulative counters after this request's edge stream was
// folded into its model state.
type IngestResponse struct {
	Session string `json:"session"`
	Model   string `json:"model"`
	// Created reports whether this request created the session.
	Created bool `json:"created,omitempty"`
	// Absorbed counts snapshots folded into the model state by this
	// request; Steps is the session's cumulative total.
	Absorbed int `json:"absorbed"`
	Steps    int `json:"steps"`
	// Edges/Records/Dropped/Nodes are cumulative stream counters:
	// deduplicated edges, parsed records, records dropped under
	// drop_unknown, and distinct node IDs mapped.
	Edges   int64 `json:"edges"`
	Records int64 `json:"records"`
	Dropped int64 `json:"dropped,omitempty"`
	Nodes   int   `json:"nodes"`
	// Pending reports that a window is still under construction after
	// this request (flush=false with records in the open window); the
	// next append continues it.
	Pending   bool    `json:"pending,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ExpiresAt string  `json:"expires_at"` // RFC3339; refreshed by every touch
}

// SessionInfo is one entry of GET /v1/ingest.
type SessionInfo struct {
	Session string  `json:"session"`
	Model   string  `json:"model"`
	Steps   int     `json:"steps"`
	Edges   int64   `json:"edges"`
	Records int64   `json:"records"`
	Dropped int64   `json:"dropped,omitempty"`
	Nodes   int     `json:"nodes"`
	AgeS    float64 `json:"age_s"`
	IdleS   float64 `json:"idle_s"`
	TTLS    float64 `json:"ttl_s"`
	// Spilled marks a durable session whose state currently lives on
	// disk only; the next ingest or forecast reloads it transparently.
	Spilled bool `json:"spilled,omitempty"`
	// Node names the peer holding this copy of the session; set by the
	// cluster fan-out listing, empty in single-node mode.
	Node string `json:"node,omitempty"`
}

// SessionDeleteResponse is the body of DELETE /v1/ingest?session=....
type SessionDeleteResponse struct {
	Session string `json:"session"`
	Deleted bool   `json:"deleted"`
}

// ForecastRequest is the body of POST /v1/forecast and
// POST /v1/forecast/stream: generate T future snapshots conditioned on
// the named session's ingested history.
type ForecastRequest struct {
	Session string `json:"session"`
	// T is the forecast horizon (required, 1..MaxT).
	T int `json:"t"`
	// Seed pins the random stream; omitted, the server draws one and
	// reports it. The same session + seed always yields the same future.
	Seed *int64 `json:"seed,omitempty"`
	// DynamicNodes enables the node add/delete extension (§III-H).
	DynamicNodes bool `json:"dynamic_nodes,omitempty"`
}

// ForecastResponse is the body of a successful POST /v1/forecast.
// Sequence stays the last member: writeSequenceReply encodes the rest with
// encoding/json and appends the sequence after it.
type ForecastResponse struct {
	Session   string             `json:"session"`
	Model     string             `json:"model"`
	Seed      int64              `json:"seed"`
	Steps     int                `json:"steps"` // observed steps the forecast continues from
	ElapsedMS float64            `json:"elapsed_ms"`
	Sequence  *dyngraph.Sequence `json:"sequence"`
}

// GenerateResponse is the body of a successful POST /v1/generate.
// Sequence stays the last member, as in ForecastResponse.
type GenerateResponse struct {
	Model     string             `json:"model"`
	Seed      int64              `json:"seed"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Sequence  *dyngraph.Sequence `json:"sequence"`
}

// TraceQueryResponse is the body of GET /v1/trace. With ?id= the
// matching traces are in Traces (one per node that served a piece of the
// request, in a cluster); otherwise Recent holds the newest completed
// traces and Slowest the worst ones still retained.
type TraceQueryResponse struct {
	Stats   obs.TracerStats `json:"stats"`
	Traces  []obs.TraceView `json:"traces,omitempty"`
	Recent  []obs.TraceView `json:"recent,omitempty"`
	Slowest []obs.TraceView `json:"slowest,omitempty"`
}

// ModelInfo is one entry of GET /v1/models.
type ModelInfo struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	F         int    `json:"f"`
	Params    int    `json:"params"`
	Trained   bool   `json:"trained"`
	Generated int64  `json:"generated"` // completed generation requests served
}

// HealthResponse is the body of GET /healthz. Status is "ok",
// "degraded" (a persistence failure latched the server read-only:
// forecasts still serve, ingest sheds until the operator intervenes;
// still HTTP 200), or "draining" (handing off before exit; HTTP 503 so
// probes route away). Reason explains any non-ok status; Peers carries
// cluster membership state when the server runs behind a cluster node.
type HealthResponse struct {
	Status   string `json:"status"`
	Reason   string `json:"reason,omitempty"`
	Models   int    `json:"models"`
	Workers  int    `json:"workers"`
	Draining bool   `json:"draining,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Peers    any    `json:"peers,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Cross-node request headers shared with internal/cluster. They live
// here (the lower layer) because cluster imports server, never the
// reverse.
const (
	// HeaderTenant names the tenant a request's quota is billed to.
	HeaderTenant = "X-Vrdag-Tenant"
	// HeaderForwarded marks a request already routed by a peer node; the
	// receiver serves it locally instead of re-proxying (loop guard —
	// during failover it is exactly what makes a follower act as
	// primary).
	HeaderForwarded = "X-Vrdag-Forwarded"
	// HeaderReplica marks a replication request between cluster nodes: a
	// POST of an ingest body to fold, or a PUT of a session state to
	// install. It bypasses tenant quotas (charged once, on the admitting
	// node); the request must carry HeaderBodyCRC and HeaderRepSeq.
	HeaderReplica = "X-Vrdag-Replica"
	// HeaderBodyCRC is the CRC32C (Castagnoli, hex) of a replication
	// request's body; the receiver verifies it before applying anything,
	// so a stream torn mid-body is rejected whole rather than half-applied.
	HeaderBodyCRC = "X-Vrdag-Body-Crc"
	// HeaderRepSeq is the per-session replication sequence number (≥ 1)
	// a replication request brings the receiver to. The receiver skips
	// what it already holds, so retries and duplicated deliveries apply
	// exactly once, and folds a body only directly after the one before.
	HeaderRepSeq = "X-Vrdag-Rep-Seq"
	// HeaderAck reports, on a primary's ingest response, whether the ack
	// covers the replica ("replicated") or only local durability
	// ("local", the degraded mode while the follower is unreachable).
	HeaderAck = "X-Vrdag-Ack"
	// HeaderFolded, on an ingest response, says the body's fold began:
	// an error after that point has kept the records before the bad one,
	// so a cluster primary replicates its resulting state all the same.
	HeaderFolded = "X-Vrdag-Folded"
	// HeaderCreated, on an ingest response, says the request created the
	// session. A cluster primary passes it on with the replicated body, and
	// a follower whose own fold disagrees held a different session.
	HeaderCreated = "X-Vrdag-Created"
)
