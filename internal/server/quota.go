// Per-tenant fairness: a token-bucket request quota plus a
// concurrent-cell semaphore, both keyed by the X-Tenant header. The
// bucket bounds how fast one tenant can submit grids; the cell
// semaphore bounds how much of the worker pool a single tenant can
// occupy at once, so a tenant that uploads a 500-cell grid cannot
// starve everyone else's two-cell requests.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/telemetry"
)

// tokenBucket is a classic refill-on-demand token bucket. The clock is
// injected so quota tests are deterministic.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables the bucket
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: now}
}

// take consumes one token if available. When the bucket is empty it
// returns false and the wait until the next token matures.
func (b *tokenBucket) take() (bool, time.Duration) {
	if b == nil || b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}

// semaphore is a counting semaphore whose acquisitions are
// all-or-nothing: a batch takes its n slots in one step or waits holding
// none, so two batches can never each hold part of a full pool and wait
// on each other. Waiters are served in arrival order, so a wide batch is
// not starved by narrower ones that arrive after it.
type semaphore struct {
	mu      sync.Mutex
	size    int
	used    int
	waiters list.List // of *semWaiter, in arrival order
}

type semWaiter struct {
	n     int
	ready chan struct{} // closed once the n slots are granted
}

func newSemaphore(size int) *semaphore { return &semaphore{size: size} }

// acquire blocks until n slots (at most the semaphore's size) are
// granted together or done is closed. It returns a release func on
// success.
func (s *semaphore) acquire(n int, done <-chan struct{}) (func(), bool) {
	release := func() {
		s.mu.Lock()
		s.used -= n
		s.grant()
		s.mu.Unlock()
	}
	s.mu.Lock()
	if s.waiters.Len() == 0 && s.used+n <= s.size {
		s.used += n
		s.mu.Unlock()
		return release, true
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return release, true
	case <-done:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.ready:
		// Granted as done closed: hand the slots back.
		s.used -= n
	default:
		s.waiters.Remove(elem)
	}
	// Either way the queue head may have changed; waiters behind it can
	// now fit.
	s.grant()
	return nil, false
}

// grant hands slots to waiters from the front of the queue while their
// batches fit. The caller holds s.mu.
func (s *semaphore) grant() {
	for e := s.waiters.Front(); e != nil; e = s.waiters.Front() {
		w := e.Value.(*semWaiter)
		if s.used+w.n > s.size {
			return
		}
		s.used += w.n
		s.waiters.Remove(e)
		close(w.ready)
	}
}

// tenant bundles everything the server tracks per X-Tenant value.
type tenant struct {
	name   string
	mon    *Monitor             // request-level counters for this tenant
	grid   *experiments.Monitor // cell-level counters (progress, events, fallbacks)
	bucket *tokenBucket
	cells  *semaphore // concurrent-cell slots

	// cacheHits/cacheMisses attribute shared capture-cache traffic to the
	// tenant whose request triggered it (the cache itself only keeps
	// process-wide totals).
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// recordCapture attributes one capture-cache access to the tenant.
func (t *tenant) recordCapture(hit bool) {
	if hit {
		t.cacheHits.Add(1)
	} else {
		t.cacheMisses.Add(1)
	}
}

// cacheMetrics renders the tenant's capture-cache attribution counters.
func (t *tenant) cacheMetrics() []telemetry.Metric {
	return []telemetry.Metric{
		telemetry.CounterMetric("twolevel_serve_trace_cache_hits_total",
			"Capture requests by this tenant served from stored events.", t.cacheHits.Load()),
		telemetry.CounterMetric("twolevel_serve_trace_cache_misses_total",
			"Capture requests by this tenant that opened or extended a capture.", t.cacheMisses.Load()),
	}
}

// tenants is the registry; tenants are created on first use and live
// for the life of the process (tenant IDs are operator-controlled
// strings, not attacker-controlled unbounded input — the ID is
// truncated defensively all the same).
type tenants struct {
	mu   sync.Mutex
	m    map[string]*tenant
	mk   func(name string) *tenant
	keys []string // insertion order, for stable /metrics rendering
}

func newTenants(mk func(name string) *tenant) *tenants {
	return &tenants{m: make(map[string]*tenant), mk: mk}
}

const maxTenantID = 64

func (ts *tenants) get(name string) *tenant {
	if name == "" {
		name = "anon"
	}
	if len(name) > maxTenantID {
		name = name[:maxTenantID]
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[name]
	if !ok {
		t = ts.mk(name)
		ts.m[name] = t
		ts.keys = append(ts.keys, name)
	}
	return t
}

// lookup returns the tenant only if it already exists.
func (ts *tenants) lookup(name string) (*tenant, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[name]
	return t, ok
}

// all returns the tenants in creation order.
func (ts *tenants) all() []*tenant {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*tenant, 0, len(ts.keys))
	for _, k := range ts.keys {
		out = append(out, ts.m[k])
	}
	return out
}
