package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vrdag/internal/obs"
)

// Per-tenant token-bucket quotas on the admission queue. The tenant is
// named by the X-Vrdag-Tenant header (absent → "default"); each tenant
// holds an independent bucket refilled at QuotaRate tokens/sec up to
// quotaBurst(QuotaRate), and a request that finds the bucket empty is
// shed with 429 before it can take an admission slot — so one tenant's
// burst cannot crowd the queue that every other tenant's latency depends
// on.
//
// Replica-apply traffic (X-Vrdag-Replica, see internal/cluster) bypasses
// the check: the quota was already charged on the node that admitted the
// client's request, and throttling replication would let a noisy tenant
// break the durability of a quiet one's sessions.

type tenantBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time

	admitted  int64
	throttled int64
}

// quotaBurst is a tenant bucket's capacity: one second of refill, rounded
// up, and never less than one request.
func quotaBurst(rate float64) float64 { return max(1, math.Ceil(rate)) }

// take removes one token, refilling from elapsed wall time first. It
// reports whether the request may proceed and, when it may not, how many
// seconds until a token will be available.
func (b *tenantBucket) take(now time.Time, rate float64, burst float64) (ok bool, waitS float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	} else {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.admitted++
		return true, 0
	}
	b.throttled++
	return false, (1 - b.tokens) / rate
}

// tenantOf resolves the tenant a request is billed to.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return "default"
}

// checkQuota enforces the tenant's bucket, writing the 429 (with a
// jittered Retry-After) itself. It reports whether the request may
// proceed. No-op unless QuotaRate is configured.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.QuotaRate <= 0 || r.Header.Get(HeaderReplica) != "" {
		return true
	}
	tenant := tenantOf(r)
	sp := obs.Start(r.Context(), "quota").SetStr("tenant", tenant)
	s.quotaMu.Lock()
	b, ok := s.quotas[tenant]
	if !ok {
		b = &tenantBucket{}
		s.quotas[tenant] = b
	}
	s.quotaMu.Unlock()
	burst := quotaBurst(s.cfg.QuotaRate)
	ok, waitS := b.take(time.Now(), s.cfg.QuotaRate, burst)
	if ok {
		sp.SetStr("outcome", "ok").End()
		return true
	}
	sp.SetStr("outcome", "throttled").End()
	base := int(waitS) + 1
	w.Header().Set("Retry-After", s.retryAfterJitter(base, base))
	s.writeError(w, http.StatusTooManyRequests,
		"tenant %q over quota (%.3g req/s, burst %g)", tenant, s.cfg.QuotaRate, burst)
	return false
}

// TenantStats is one tenant's quota accounting as renderProm reads it.
type TenantStats struct {
	Admitted  int64
	Throttled int64
	Tokens    float64 // bucket level at scrape time
}

// tenantStats renders the per-tenant counters for /metrics.
func (s *Server) tenantStats() map[string]TenantStats {
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	if len(s.quotas) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(s.quotas))
	for name, b := range s.quotas {
		b.mu.Lock()
		out[name] = TenantStats{
			Admitted:  b.admitted,
			Throttled: b.throttled,
			Tokens:    b.tokens,
		}
		b.mu.Unlock()
	}
	return out
}

// retryAfterJitter renders a Retry-After value drawn uniformly from
// [base, base+spread] seconds, so a cohort of clients shed at the same
// instant spreads its retries instead of stampeding back in lockstep.
func (s *Server) retryAfterJitter(base, spread int) string {
	if spread > 0 {
		s.seedMu.Lock()
		base += s.seeder.Intn(spread + 1)
		s.seedMu.Unlock()
	}
	return strconv.Itoa(base)
}
