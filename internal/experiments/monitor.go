// Live grid monitoring: a Monitor is a set of atomic counters the grid
// scheduler bumps as cells complete, plus the HTTP surface that exposes
// them while a suite runs — /metrics in Prometheus text format, /progress
// as a JSON snapshot with an ETA, and /debug/pprof for attaching a
// profiler mid-run. Attach one via Options.Monitor and serve Handler();
// brexp wires both behind its -listen flag.
//
// The counters are lock-free on the update path (the scheduler's workers
// never contend on a mutex to report progress); only the worker-state
// table takes a short lock, off the simulation hot loop.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// Monitor accumulates live progress counters for grid runs. The zero
// value is not usable; construct with NewMonitor. A nil *Monitor is a
// valid no-op receiver, so the scheduler updates it unconditionally.
type Monitor struct {
	start time.Time

	cellsPlanned      atomic.Uint64
	cellsDone         atomic.Uint64
	cellsRestored     atomic.Uint64
	cellsFailed       atomic.Uint64
	cellsRetried      atomic.Uint64
	batchFallbacks    atomic.Uint64
	checkpointFlushes atomic.Uint64
	events            atomic.Uint64

	// cellTimes holds measured per-cell wall time (batched cells are
	// charged an equal share of their pass). It backs the /progress
	// latency percentiles and the measured-latency ETA.
	cellTimes span.Histogram

	// tracer, when attached, backs the /spans endpoint with the live
	// span summary tree of the running suite.
	tracer atomic.Pointer[span.Tracer]

	workerMu sync.Mutex
	workers  []*atomic.Pointer[string]
}

// NewMonitor returns a monitor with its clock started.
func NewMonitor() *Monitor { return &Monitor{start: time.Now()} } //lint:allow determinism live-monitoring clock; /metrics and /progress are not byte-identical surfaces

// ResultEvents is the simulator-event count of one completed run, defined
// to match exactly what an Observer's callbacks count for the same run
// (predictions incl. repredictions + resolutions + traps + context
// switches), so the monitor's event total agrees with the per-run Events
// sums in metrics.json. The grid scheduler and brserve's request executor
// both charge cells with it.
func ResultEvents(res sim.Result) uint64 {
	return 2*res.Accuracy.Predictions + res.Repredictions + res.Traps + res.ContextSwitches
}

func (m *Monitor) cellRestored() {
	if m != nil {
		m.cellsRestored.Add(1)
	}
}

func (m *Monitor) cellRetried() {
	if m != nil {
		m.cellsRetried.Add(1)
	}
}

func (m *Monitor) batchFallback() {
	if m != nil {
		m.batchFallbacks.Add(1)
	}
}

func (m *Monitor) checkpointFlush() {
	if m != nil {
		m.checkpointFlushes.Add(1)
	}
}

// AddPlanned records n newly scheduled cells.
func (m *Monitor) AddPlanned(n int) {
	if m != nil && n > 0 {
		m.cellsPlanned.Add(uint64(n))
	}
}

// CellDone records one completed cell and its simulator events.
func (m *Monitor) CellDone(events uint64) {
	if m != nil {
		m.cellsDone.Add(1)
		m.events.Add(events)
	}
}

// CellsFailed records n cells that gave up.
func (m *Monitor) CellsFailed(n int) {
	if m != nil && n > 0 {
		m.cellsFailed.Add(uint64(n))
	}
}

// ObserveCells records n cells completing with per-cell duration d each
// (a batched pass charges every member an equal share of the pass).
func (m *Monitor) ObserveCells(d time.Duration, n int) {
	if m == nil {
		return
	}
	for i := 0; i < n; i++ {
		m.cellTimes.Observe(d)
	}
}

// AttachTracer publishes tr on the monitor's /spans endpoint. Safe to
// call on a nil monitor or with a nil tracer (detaches).
func (m *Monitor) AttachTracer(tr *span.Tracer) {
	if m != nil {
		m.tracer.Store(tr)
	}
}

// tracerOrNil returns the attached tracer, nil-monitor safe.
func (m *Monitor) tracerOrNil() *span.Tracer {
	if m == nil {
		return nil
	}
	return m.tracer.Load()
}

// idleState is the worker state outside a task.
var idleState = "idle"

// workerHandle returns worker w's state cell, growing the table as
// needed. A nil monitor returns nil; setWorkerState on a nil handle is a
// no-op, so workers never branch on monitoring being enabled.
func (m *Monitor) workerHandle(w int) *atomic.Pointer[string] {
	if m == nil {
		return nil
	}
	m.workerMu.Lock()
	defer m.workerMu.Unlock()
	for len(m.workers) <= w {
		p := &atomic.Pointer[string]{}
		p.Store(&idleState)
		m.workers = append(m.workers, p)
	}
	return m.workers[w]
}

// setWorkerState publishes a worker's current activity.
func setWorkerState(h *atomic.Pointer[string], state string) {
	if h != nil {
		h.Store(&state)
	}
}

// MonitorSnapshot is a point-in-time view of a Monitor: the /progress
// payload, and the section of metrics.json the final /metrics scrape is
// checked against. Counter fields are exact; ElapsedSeconds, EventsPerSec
// and ETASeconds are derived at snapshot time.
type MonitorSnapshot struct {
	// CellsPlanned counts grid cells scheduled so far (restored cells
	// included); CellsDone counts cells measured to completion,
	// CellsRestored cells served from a checkpoint without running,
	// CellsFailed cells that failed, CellsRetried cells re-run alone
	// after their batched pass failed (RunBatch; a one-cell batch is
	// never re-run, so its failure is not counted here).
	CellsPlanned  uint64 `json:"cells_planned"`
	CellsDone     uint64 `json:"cells_done"`
	CellsRestored uint64 `json:"cells_restored"`
	CellsFailed   uint64 `json:"cells_failed"`
	CellsRetried  uint64 `json:"cells_retried"`
	// BatchFallbacks counts batched replay passes that failed and fell
	// back to per-cell isolation; CheckpointFlushes counts manifest
	// writes.
	BatchFallbacks    uint64 `json:"batch_fallbacks"`
	CheckpointFlushes uint64 `json:"checkpoint_flushes"`
	// Events is the total simulator events across completed cells
	// (restored cells contribute none — they were not re-simulated).
	Events uint64 `json:"events"`
	// ElapsedSeconds is the monitor's age; EventsPerSec is Events over
	// it. ETASeconds extrapolates the remaining cells from measured
	// per-cell latency spread over the live workers when latency has
	// been observed, falling back to the completed-cell rate otherwise;
	// -1 while unknown (nothing completed yet).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	ETASeconds     float64 `json:"eta_seconds"`
	// CellSeconds* summarise measured per-cell wall time (batched cells
	// are charged an equal share of their replay pass): the mean, the
	// log-bucketed p50/p95 (upper bounds, ≤2x error) and the exact max.
	// All zero until a cell completes live (restored cells contribute
	// nothing — they were not re-simulated).
	CellSecondsMean float64 `json:"cell_seconds_mean"`
	CellSecondsP50  float64 `json:"cell_seconds_p50"`
	CellSecondsP95  float64 `json:"cell_seconds_p95"`
	CellSecondsMax  float64 `json:"cell_seconds_max"`
	// TraceCache is the capture cache's footprint and hit/miss counters.
	TraceCache trace.CaptureStats `json:"trace_cache"`
	// Workers is each pool worker's current activity.
	Workers []string `json:"workers,omitempty"`
}

// Snapshot captures the monitor's current state.
func (m *Monitor) Snapshot() MonitorSnapshot {
	if m == nil {
		return MonitorSnapshot{ETASeconds: -1}
	}
	s := MonitorSnapshot{
		CellsPlanned:      m.cellsPlanned.Load(),
		CellsDone:         m.cellsDone.Load(),
		CellsRestored:     m.cellsRestored.Load(),
		CellsFailed:       m.cellsFailed.Load(),
		CellsRetried:      m.cellsRetried.Load(),
		BatchFallbacks:    m.batchFallbacks.Load(),
		CheckpointFlushes: m.checkpointFlushes.Load(),
		Events:            m.events.Load(),
		ElapsedSeconds:    time.Since(m.start).Seconds(), //lint:allow determinism live-monitoring clock; /metrics and /progress are not byte-identical surfaces
		ETASeconds:        -1,
		TraceCache:        CaptureCacheStats(),
	}
	if s.ElapsedSeconds > 0 {
		s.EventsPerSec = float64(s.Events) / s.ElapsedSeconds
	}
	if m.cellTimes.Count() > 0 {
		s.CellSecondsMean = m.cellTimes.Mean().Seconds()
		s.CellSecondsP50 = m.cellTimes.Quantile(0.5).Seconds()
		s.CellSecondsP95 = m.cellTimes.Quantile(0.95).Seconds()
		s.CellSecondsMax = m.cellTimes.Max().Seconds()
	}
	m.workerMu.Lock()
	live := 0
	for _, p := range m.workers {
		st := *p.Load()
		s.Workers = append(s.Workers, st)
		if st != "done" {
			live++
		}
	}
	m.workerMu.Unlock()
	settled := s.CellsDone + s.CellsRestored + s.CellsFailed
	switch {
	case s.CellsPlanned > 0 && s.CellsPlanned == settled:
		s.ETASeconds = 0
	case s.CellsPlanned > settled && m.cellTimes.Count() > 0 && live > 0:
		// Measured latency spread over the live workers beats the
		// elapsed/done ratio: restored cells and startup overhead do
		// not dilute it, and it adapts as slow cells land. It needs
		// live workers to spread over — a drained pool (or a monitor
		// whose scheduler never registers workers, like brserve's
		// per-tenant grids) falls through to the counter ratio below
		// instead of dividing by a phantom worker.
		s.ETASeconds = s.CellSecondsMean * float64(s.CellsPlanned-settled) / float64(live)
	case s.CellsPlanned > settled && s.CellsDone > 0:
		perCell := s.ElapsedSeconds / float64(s.CellsDone)
		s.ETASeconds = perCell * float64(s.CellsPlanned-settled)
	}
	return s
}

// Metrics flattens the snapshot into the shared metric-row form the
// telemetry registry renders — the single source behind WritePrometheus,
// brserve's /metrics scopes and the /progress JSON values. Row order is
// the exposition order the observability smoke check diffs, so it must
// not change casually.
func (s MonitorSnapshot) Metrics() []telemetry.Metric {
	ms := []telemetry.Metric{
		telemetry.CounterMetric("twolevel_grid_cells_planned_total", "Grid cells scheduled.", s.CellsPlanned),
		telemetry.CounterMetric("twolevel_grid_cells_done_total", "Grid cells measured to completion.", s.CellsDone),
		telemetry.CounterMetric("twolevel_grid_cells_restored_total", "Grid cells restored from a checkpoint.", s.CellsRestored),
		telemetry.CounterMetric("twolevel_grid_cells_failed_total", "Grid cells that failed.", s.CellsFailed),
		telemetry.CounterMetric("twolevel_grid_cells_retried_total", "Grid cells re-run alone after their batched pass of two or more cells failed; a one-cell batch is not re-run.", s.CellsRetried),
		telemetry.CounterMetric("twolevel_grid_batch_fallbacks_total", "Batched replay passes that fell back to per-cell isolation.", s.BatchFallbacks),
		telemetry.CounterMetric("twolevel_grid_checkpoint_flushes_total", "Checkpoint manifest writes.", s.CheckpointFlushes),
		telemetry.CounterMetric("twolevel_sim_events_total", "Simulator events across completed cells.", s.Events),
		telemetry.GaugeMetric("twolevel_sim_events_per_second", "Simulator event throughput since the monitor started.", s.EventsPerSec),
		telemetry.GaugeMetric("twolevel_elapsed_seconds", "Seconds since the monitor started.", s.ElapsedSeconds),
		telemetry.GaugeMetric("twolevel_eta_seconds", "Estimated seconds to finish the planned cells (-1 unknown).", s.ETASeconds),
		telemetry.GaugeMetric("twolevel_cell_seconds_mean", "Mean measured per-cell wall time.", s.CellSecondsMean),
		telemetry.GaugeMetric("twolevel_cell_seconds_p50", "Median measured per-cell wall time (log-bucketed upper bound).", s.CellSecondsP50),
		telemetry.GaugeMetric("twolevel_cell_seconds_p95", "95th-percentile per-cell wall time (log-bucketed upper bound).", s.CellSecondsP95),
		telemetry.GaugeMetric("twolevel_cell_seconds_max", "Slowest measured cell wall time.", s.CellSecondsMax),
		telemetry.CounterMetric("twolevel_trace_cache_hits_total", "Capture cache requests served from stored events.", s.TraceCache.Hits),
		telemetry.CounterMetric("twolevel_trace_cache_misses_total", "Capture cache requests that opened or extended a capture.", s.TraceCache.Misses),
		telemetry.GaugeMetric("twolevel_trace_cache_hit_ratio", "Capture cache hit ratio.", s.TraceCache.HitRatio()),
		telemetry.GaugeMetric("twolevel_trace_cache_entries", "Captured streams resident.", float64(s.TraceCache.Entries)),
		telemetry.GaugeMetric("twolevel_trace_cache_bytes", "Approximate heap bytes held by captures.", float64(s.TraceCache.Bytes)),
	}
	// Worker states as one labelled gauge; states are free-form, so each
	// worker exports its current state string as a label. The family
	// header renders even with no workers registered yet.
	const workerHelp = "Per-worker activity (value always 1; state in the label)."
	if len(s.Workers) == 0 {
		ms = append(ms, telemetry.Metric{
			Name: "twolevel_worker_state", Help: workerHelp,
			Kind: telemetry.GaugeKind, HeaderOnly: true,
		})
	}
	for i, st := range s.Workers {
		ms = append(ms, telemetry.Metric{
			Name: "twolevel_worker_state", Help: workerHelp,
			Kind: telemetry.GaugeKind, Gauge: 1,
			Labels: fmt.Sprintf("worker=%q,state=%q", fmt.Sprint(i), st),
		})
	}
	return ms
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format.
func (s MonitorSnapshot) WritePrometheus(w io.Writer) error {
	telemetry.WriteMetrics(w, "", s.Metrics())
	return nil
}

// Handler returns the monitoring mux: /metrics (Prometheus text),
// /progress (JSON MonitorSnapshot) and /debug/pprof/*.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Snapshot())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr := m.tracerOrNil()
		if tr == nil {
			fmt.Fprintln(w, "no tracer attached (run with -trace-out or -span-summary)")
			return
		}
		tr.Summary().WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
