// Package server is the prediction-as-a-service daemon behind
// cmd/brserve: clients POST a trace (or name a cached benchmark) plus a
// predictor-spec grid and get back per-cell accuracy/cost results.
//
// Robustness is the design center, not the API surface. Every request
// passes a gauntlet before it may touch the simulator:
//
//	drain gate    -> 503 once SIGTERM started the drain
//	tenant bucket -> 429 when the tenant's token bucket is empty
//	admission     -> 429 + Retry-After when the bounded queue is full
//	validation    -> 4xx for malformed, oversized or over-budget grids
//
// Admitted grids run through sim.RunMany and the fastpath kernel on a
// worker pool sized to GOMAXPROCS, through the experiment scheduler's
// own recover-fence / per-cell-isolation ladder (experiments.RunBatch),
// so one poisoned cell degrades one response instead of the process. All
// tenants share one trace.CaptureCache: identical uploads and repeated
// benchmark grids are captured once and replayed by everyone.
package server

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/logx"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// now is the server's single wall-clock read: request latency, quota
// refill and Retry-After all derive from it, and tests inject their own
// clock through the Config seam instead of sleeping.
func now() time.Time { return time.Now() } //lint:allow determinism serving latency/quota/drain clock; no byte-identical surface reads it

// Config tunes the server's admission, quota and safety limits. The
// zero value is usable: every field has a production default.
type Config struct {
	// MaxConcurrent bounds admitted requests executing at once
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxConcurrent; an arrival past the queue is shed with 429
	// (default 2*MaxConcurrent).
	MaxQueue int
	// TenantRate is each tenant's sustained request rate in requests
	// per second; TenantBurst is the bucket depth (rate <= 0 disables
	// the bucket; burst defaults to max(1, 2*rate)).
	TenantRate  float64
	TenantBurst int
	// TenantCells bounds one tenant's concurrently executing grid
	// cells, so a giant grid cannot monopolise the worker pool
	// (default GOMAXPROCS).
	TenantCells int
	// MaxCells caps the per-request grid size (default 256).
	MaxCells int
	// MaxBranches caps both per-request conditional-branch budgets,
	// branches and train_branches (default 10,000,000);
	// DefaultBranches is used when a request omits its budget
	// (default 100,000).
	MaxBranches     uint64
	DefaultBranches uint64
	// MaxUploadBytes caps a trace upload payload (default 64 MiB).
	MaxUploadBytes int64
	// RequestTimeout bounds one admitted request end to end; a request
	// may ask for less, never more (default 120s).
	RequestTimeout time.Duration
	// WriteTimeout is the per-write deadline protecting workers from
	// slow-reading clients: each response write (and each streamed
	// progress line) must be accepted within it (default 10s).
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful drain after the serve context is
	// cancelled: in-flight requests get this long to finish before
	// connections are torn down (default 15s).
	DrainTimeout time.Duration
	// KeepAliveInterval paces the {"type":"keepalive"} heartbeat on
	// streamed grid responses, so clients can tell a slow cell from a
	// dead connection (default 5s; < 0 disables).
	KeepAliveInterval time.Duration
	// MaxStreamSamples caps the per-cell interval samples a streamed
	// request may ask for: requests whose branches/interval ratio
	// exceeds it are refused with 400 (default 512).
	MaxStreamSamples int
	// Workers bounds simulator cells executing at once across ALL
	// tenants (default GOMAXPROCS).
	Workers int
	// Logger receives serving events (nil = slog.Default()).
	Logger *slog.Logger

	// Test seams. buildPredictor replaces spec.Build (chaos tests
	// return panicking predictors); openBench replaces the benchmark
	// interpreter (chaos tests return faulting sources); clock replaces
	// the wall clock (quota and latency tests advance it by hand).
	buildPredictor func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error)
	openBench      func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error)
	clock          func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = max(1, int(2*c.TenantRate))
	}
	if c.TenantCells <= 0 {
		c.TenantCells = runtime.GOMAXPROCS(0)
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 256
	}
	if c.MaxBranches == 0 {
		c.MaxBranches = 10_000_000
	}
	if c.DefaultBranches == 0 {
		c.DefaultBranches = 100_000
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = 5 * time.Second
	}
	if c.MaxStreamSamples <= 0 {
		c.MaxStreamSamples = 512
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.buildPredictor == nil {
		c.buildPredictor = spec.Build
	}
	if c.openBench == nil {
		c.openBench = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
			return b.NewSource(ds)
		}
	}
	if c.clock == nil {
		c.clock = now
	}
	return c
}

// Server is one serving process: shared capture cache, tenant registry,
// admission machinery and HTTP surface. Create with New.
type Server struct {
	cfg    Config
	log    *slog.Logger
	cache  *trace.CaptureCache
	ten    *tenants
	agg    *Monitor             // server-wide request counters
	grid   *experiments.Monitor // server-wide cell counters (feeds /spans too)
	tracer *span.Tracer
	reg    *telemetry.Registry // unified metrics: /metrics and /progress render from it

	slots    chan struct{} // admitted-request concurrency
	queued   atomic.Int64  // requests holding or waiting for a slot
	workSem  *semaphore    // simulator cells in flight, all tenants
	draining atomic.Bool
	uploads  sync.Map // upload key -> uploadInfo; the grid path 404s keys not here
	mux      *http.ServeMux
}

// New builds a Server from cfg (zero value = production defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     logx.Or(cfg.Logger),
		cache:   trace.NewCaptureCache(),
		agg:     &Monitor{},
		grid:    experiments.NewMonitor(),
		tracer:  span.NewWithClock(cfg.clock),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		workSem: newSemaphore(cfg.Workers),
	}
	s.grid.AttachTracer(s.tracer)
	// Every metrics surface renders from one registry: the process scope
	// (request aggregate, admission/cache gauges, server-wide grid, kernel
	// declines by reason), then
	// each tenant's request counters, grid progress and cache attribution
	// registered as the tenant is first seen.
	s.reg = telemetry.NewRegistry()
	s.reg.Register(func() []telemetry.Metric { return s.agg.Snapshot().Metrics() })
	s.reg.Register(s.serverMetrics)
	s.reg.Register(func() []telemetry.Metric { return s.grid.Snapshot().Metrics() })
	s.reg.Register(sim.DeclineMetrics)
	s.ten = newTenants(func(name string) *tenant {
		t := &tenant{
			name:   name,
			mon:    &Monitor{},
			grid:   experiments.NewMonitor(),
			bucket: newTokenBucket(cfg.TenantRate, cfg.TenantBurst, cfg.clock),
			cells:  newSemaphore(cfg.TenantCells),
		}
		s.reg.RegisterTenant(name, func() []telemetry.Metric { return t.mon.Snapshot().Metrics() })
		s.reg.RegisterTenant(name, func() []telemetry.Metric { return t.grid.Snapshot().Metrics() })
		s.reg.RegisterTenant(name, t.cacheMetrics)
		return t
	})
	s.mux = s.routes()
	return s
}

// Handler returns the server's HTTP surface; see routes in handlers.go.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Tracer returns the serving tracer (for -trace-out style dumps).
func (s *Server) Tracer() *span.Tracer { return s.tracer }

// CacheStats reports the shared capture cache's footprint.
func (s *Server) CacheStats() trace.CaptureStats { return s.cache.Stats() }

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully: admission is closed (readyz flips to 503, new grid
// requests get 503 + Retry-After), in-flight requests get
// cfg.DrainTimeout to finish via http.Server.Shutdown, and only then
// are lingering connections torn down. Returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.log.Info("draining", "timeout", s.cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Past the deadline: sever what is left rather than hang the
		// process. In-flight handlers see their request contexts die.
		srv.Close()
		s.log.Warn("drain deadline exceeded, connections closed", "err", err)
		return err
	}
	s.log.Info("drained")
	return nil
}

// admit runs the admission gauntlet for one grid request. On success it
// returns a release func; otherwise it has already written the refusal
// response and returns ok=false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, t *tenant) (release func(), ok bool) {
	s.agg.request()
	t.mon.request()
	if s.draining.Load() {
		s.agg.drainOne()
		t.mon.drainOne()
		s.refuse(w, http.StatusServiceUnavailable, s.cfg.DrainTimeout, "server is draining")
		return nil, false
	}
	if allowed, wait := t.bucket.take(); !allowed {
		s.agg.quotaDeny()
		t.mon.quotaDeny()
		s.refuse(w, http.StatusTooManyRequests, wait, "tenant quota exhausted")
		return nil, false
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.agg.shedOne()
		t.mon.shedOne()
		s.refuse(w, http.StatusTooManyRequests, s.retryAfter(), "admission queue full")
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		// Client gave up (or its deadline fired) while queued.
		s.queued.Add(-1)
		s.agg.shedOne()
		t.mon.shedOne()
		s.refuse(w, http.StatusTooManyRequests, s.retryAfter(), "request cancelled while queued")
		return nil, false
	}
	s.agg.admit()
	t.mon.admit()
	return func() {
		<-s.slots
		s.queued.Add(-1)
	}, true
}

// retryAfter derives a shed backoff from observed service time: the
// mean admitted-request latency, floored at one second so a cold server
// never advertises a zero backoff.
func (s *Server) retryAfter() time.Duration {
	d := s.agg.latency.Mean()
	if d < time.Second {
		d = time.Second
	}
	return d
}
