package server

import (
	"sync/atomic"
	"time"
)

// Per-endpoint request accounting: a counter triple and a small
// fixed-bucket latency histogram, updated lock-free on every request and
// rendered by GET /metrics (prom.go) straight from the atomics. Buckets
// are fixed at compile time — the point is a cheap always-on signal (is
// p99 drifting? are 429s climbing?), not a general metrics system.

// latencyBucketsMS are the histogram upper bounds in milliseconds; an
// implicit +Inf bucket catches the rest. The range spans a cache-warm
// /healthz (<1ms) to a full-horizon generation on a large replica.
var latencyBucketsMS = [...]float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status >= 400
	shed     atomic.Int64 // responses with status 429 or 503 (admission, quota, drain, degraded or closed server)
	totalUS  atomic.Int64 // summed latency in microseconds
	buckets  [len(latencyBucketsMS) + 1]atomic.Int64
}

func (e *endpointStats) observe(status int, d time.Duration) {
	e.requests.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	if status == 429 || status == 503 {
		e.shed.Add(1)
	}
	e.totalUS.Add(d.Microseconds())
	ms := float64(d.Microseconds()) / 1000
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	e.buckets[i].Add(1)
}

// statsFor resolves the stats slot for a request path. Routes are
// registered up front in New; anything else lands in the catch-all slot
// so unknown paths cannot grow the map (which is read without a lock).
func (s *Server) statsFor(path string) *endpointStats {
	if e, ok := s.endpointStats[path]; ok {
		return e
	}
	return s.endpointStats["other"]
}
