// Request-level serving counters. Each tenant owns one server.Monitor
// (admission, quota and outcome counters plus a request-latency
// histogram) alongside an experiments.Monitor for its cell-level grid
// progress; the /metrics endpoint renders both.
//
// Every counter is a sync/atomic value: handler goroutines bump them
// concurrently with scrapes (the same lock-free contract the grid
// monitor carries). go vet's copylocks check and the race-detector test
// run cover these types.
package server

import (
	"io"
	"sync/atomic"
	"time"

	"twolevel/internal/span"
	"twolevel/internal/telemetry"
)

// Monitor accumulates one tenant's (or the server-wide aggregate's)
// request-level counters. A nil *Monitor is a valid no-op receiver.
type Monitor struct {
	requests    atomic.Uint64 // grid requests received (before any gate)
	admitted    atomic.Uint64 // requests that made it past every gate
	shed        atomic.Uint64 // requests 429'd because the admission queue was full
	quotaDenied atomic.Uint64 // requests 429'd by the tenant token bucket
	drained     atomic.Uint64 // requests 503'd because the server was draining
	rejected    atomic.Uint64 // requests refused as malformed/oversized (4xx)
	completed   atomic.Uint64 // admitted requests that finished with every cell OK
	failed      atomic.Uint64 // admitted requests with at least one failed cell
	uploads     atomic.Uint64 // trace uploads accepted
	uploadBytes atomic.Uint64 // trace upload payload bytes accepted

	// latency is the admitted-request service-time histogram (admission
	// wait included) behind the snapshot's latency quantiles.
	latency span.Histogram
}

func (m *Monitor) request() {
	if m != nil {
		m.requests.Add(1)
	}
}

func (m *Monitor) admit() {
	if m != nil {
		m.admitted.Add(1)
	}
}

func (m *Monitor) shedOne() {
	if m != nil {
		m.shed.Add(1)
	}
}

func (m *Monitor) quotaDeny() {
	if m != nil {
		m.quotaDenied.Add(1)
	}
}

func (m *Monitor) drainOne() {
	if m != nil {
		m.drained.Add(1)
	}
}

func (m *Monitor) reject() {
	if m != nil {
		m.rejected.Add(1)
	}
}

func (m *Monitor) done(ok bool, d time.Duration) {
	if m == nil {
		return
	}
	if ok {
		m.completed.Add(1)
	} else {
		m.failed.Add(1)
	}
	m.latency.Observe(d)
}

func (m *Monitor) upload(bytes int64) {
	if m != nil {
		m.uploads.Add(1)
		m.uploadBytes.Add(uint64(bytes))
	}
}

// MonitorSnapshot is a point-in-time view of a Monitor.
type MonitorSnapshot struct {
	Requests    uint64 `json:"requests"`
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
	QuotaDenied uint64 `json:"quota_denied"`
	Drained     uint64 `json:"drained"`
	Rejected    uint64 `json:"rejected"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Uploads     uint64 `json:"uploads"`
	UploadBytes uint64 `json:"upload_bytes"`
	// LatencySeconds* summarise admitted-request service time: mean,
	// log-bucketed p50/p95 (upper bounds, <=2x error) and exact max.
	LatencySecondsMean float64 `json:"latency_seconds_mean"`
	LatencySecondsP50  float64 `json:"latency_seconds_p50"`
	LatencySecondsP95  float64 `json:"latency_seconds_p95"`
	LatencySecondsMax  float64 `json:"latency_seconds_max"`
}

// Snapshot captures the monitor's current state (zero value when nil).
func (m *Monitor) Snapshot() MonitorSnapshot {
	if m == nil {
		return MonitorSnapshot{}
	}
	s := MonitorSnapshot{
		Requests:    m.requests.Load(),
		Admitted:    m.admitted.Load(),
		Shed:        m.shed.Load(),
		QuotaDenied: m.quotaDenied.Load(),
		Drained:     m.drained.Load(),
		Rejected:    m.rejected.Load(),
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Uploads:     m.uploads.Load(),
		UploadBytes: m.uploadBytes.Load(),
	}
	if m.latency.Count() > 0 {
		s.LatencySecondsMean = m.latency.Mean().Seconds()
		s.LatencySecondsP50 = m.latency.Quantile(0.5).Seconds()
		s.LatencySecondsP95 = m.latency.Quantile(0.95).Seconds()
		s.LatencySecondsMax = m.latency.Max().Seconds()
	}
	return s
}

// ShedRate returns shed+quota-denied over all requests (0 before the
// first request).
func (s MonitorSnapshot) ShedRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Shed+s.QuotaDenied) / float64(s.Requests)
}

// counterSeries returns the snapshot's counter values in stable order.
func (s MonitorSnapshot) counterSeries() []struct {
	Name string
	Help string
	V    uint64
} {
	return []struct {
		Name string
		Help string
		V    uint64
	}{
		{"requests", "Grid requests received.", s.Requests},
		{"admitted", "Requests admitted past every gate.", s.Admitted},
		{"shed", "Requests shed with 429 by the full admission queue.", s.Shed},
		{"quota_denied", "Requests denied with 429 by the tenant token bucket.", s.QuotaDenied},
		{"drained", "Requests refused with 503 while draining.", s.Drained},
		{"rejected", "Malformed or oversized requests refused with 4xx.", s.Rejected},
		{"completed", "Admitted requests with every cell served.", s.Completed},
		{"failed", "Admitted requests with at least one failed cell.", s.Failed},
		{"uploads", "Trace uploads accepted.", s.Uploads},
		{"upload_bytes", "Trace upload payload bytes accepted.", s.UploadBytes},
	}
}

// Metrics flattens the snapshot into the shared metric-row form the
// telemetry registry renders: the request counters in counterSeries
// order, then the latency and shed-rate gauges.
func (s MonitorSnapshot) Metrics() []telemetry.Metric {
	var ms []telemetry.Metric
	for _, c := range s.counterSeries() {
		ms = append(ms, telemetry.CounterMetric("twolevel_serve_"+c.Name+"_total", c.Help, c.V))
	}
	g := func(name, help string, v float64) {
		ms = append(ms, telemetry.GaugeMetric("twolevel_serve_"+name, help, v))
	}
	g("latency_seconds_mean", "Mean admitted-request service time.", s.LatencySecondsMean)
	g("latency_seconds_p50", "Median admitted-request service time (log-bucketed upper bound).", s.LatencySecondsP50)
	g("latency_seconds_p95", "95th-percentile admitted-request service time (log-bucketed upper bound).", s.LatencySecondsP95)
	g("latency_seconds_max", "Slowest admitted-request service time.", s.LatencySecondsMax)
	g("shed_rate", "Shed plus quota-denied requests over all requests.", s.ShedRate())
	return ms
}

// writePrometheus renders the snapshot under a label scope — pairs
// without braces ("" or `tenant="x"`), merged by the registry writer.
func (s MonitorSnapshot) writePrometheus(w io.Writer, scope string) {
	telemetry.WriteMetrics(w, scope, s.Metrics())
}
