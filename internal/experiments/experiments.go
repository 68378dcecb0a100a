// Package experiments regenerates every table and figure in the paper's
// evaluation (§4-§5): Tables 1-3 and Figures 4-11. Each experiment runs
// the relevant predictor configurations over the nine generated SPEC
// benchmarks and produces a Report whose rows mirror the paper's series,
// including the "Int GMean", "FP GMean" and "Tot GMean" aggregates the
// figures plot.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"twolevel/internal/asm"
	"twolevel/internal/cpu"
	"twolevel/internal/logx"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/stats"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// CondBranches is the per-benchmark conditional branch budget for
	// the measured (testing) run. The paper used 20M; accuracy
	// estimates at these table sizes stabilise far earlier, so the
	// default is DefaultCondBranches (see EXPERIMENTS.md for the scale
	// note).
	CondBranches uint64
	// TrainBranches is the budget for training passes (Static Training
	// and Profiling schemes). Defaults to CondBranches.
	TrainBranches uint64
	// Benchmarks restricts the benchmark set (default: all nine).
	Benchmarks []*prog.Benchmark
	// Telemetry, when non-nil, attaches observers to every measured
	// predictor run and accumulates per-run metrics (timing, throughput,
	// hot branches, interval accuracy) for a metrics.json document.
	Telemetry *Telemetry
	// Workers bounds the worker pool that runs every per-benchmark loop:
	// the spec×benchmark grid of the accuracy figures and the
	// one-unit-per-benchmark loops of table1, fig4, ext-residual and
	// ext-interleave (0 = GOMAXPROCS). Reports are byte-identical at any
	// size; 1 runs everything inline on the calling goroutine.
	Workers int
	// DisableTraceCache turns off the capture-once trace cache and the
	// single-pass multi-predictor batching: every run then re-executes
	// the CPU interpreter, as the harness did before the cache existed.
	// Results are identical either way; this exists for benchmarking
	// the cache itself and as an escape hatch.
	DisableTraceCache bool
	// Context, when non-nil, bounds the whole experiment: trace
	// captures, training passes and measured runs poll it and the worker
	// pool stops dispatching once it is cancelled. The experiment
	// returns ctx.Err() (wrapped with the cells it interrupted).
	Context context.Context
	// KeepGoing degrades failures gracefully: instead of aborting on the
	// first broken cell, the grid marks failed cells (rendered "-" in
	// the report), finishes the rest, and returns the partial report
	// alongside a *GridError summarising every failure. Callers decide
	// whether a partial table is acceptable; the CLIs still exit
	// non-zero.
	KeepGoing bool
	// Retries is the per-cell retry budget for transient failures
	// (capture errors, source errors). Cancellation and panics are never
	// retried. 0 disables retry.
	Retries int
	// RetryBackoff is the wait before each retry, doubled per attempt
	// (50ms, 100ms, 200ms, ...). Zero means retry immediately. The
	// backoff sleep honours Context.
	RetryBackoff time.Duration
	// Checkpoint, when non-nil, records every completed grid cell in a
	// resumable JSON manifest and restores cells already present in it
	// instead of re-running them. Restored results are bit-identical to
	// fresh runs (the simulator is deterministic), so a resumed suite
	// renders byte-identical reports. See OpenCheckpoint.
	Checkpoint *Checkpoint
	// Logger, when non-nil, receives the scheduler's structured log
	// events: per-cell completions (debug), retries and batch-isolation
	// fallbacks (warn), cell failures (error), checkpoint flushes and
	// restores (debug). Nil discards them.
	Logger *slog.Logger
	// Monitor, when non-nil, is updated live as the grid executes —
	// cells planned/done/restored/failed/retried, batch fallbacks,
	// checkpoint flushes, simulator events and per-worker state — and
	// backs the /metrics, /progress and /debug/pprof endpoints served by
	// brexp -listen.
	Monitor *Monitor
	// Span, when non-nil, is the parent span experiment latency is
	// attributed under: Run opens an "exp:<id>" child, the worker pool
	// opens a task child per unit of work (a grid task, or one benchmark
	// of table1/fig4/ext-residual/ext-interleave) tagged with benchmark
	// and worker id, the grid adds cell children tagged with spec and
	// retry count, and captures, replay passes and
	// forensics assembly open phase children below those. A nil Span
	// disables tracing at zero cost (the telemetry nil-guard contract).
	// brexp -trace-out / -span-summary wire it to a root "suite" span.
	Span *span.Span

	// openSource, when non-nil, replaces the live interpreter source
	// constructor — the fault-injection seam the chaos tests use. It
	// feeds the capture cache (or the live path when the cache is
	// disabled) exactly as newSource would.
	openSource func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error)
	// cellObserver, when non-nil, attaches an extra observer to every
	// measured grid run — the chaos tests inject panicking observers
	// through it.
	cellObserver func(sp spec.Spec, b *prog.Benchmark) telemetry.Observer
}

// DefaultCondBranches is the default per-benchmark conditional branch
// budget.
const DefaultCondBranches = 100_000

func (o Options) withDefaults() Options {
	if o.CondBranches == 0 {
		o.CondBranches = DefaultCondBranches
	}
	if o.TrainBranches == 0 {
		o.TrainBranches = o.CondBranches
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = prog.All
	}
	return o
}

// Cell is one value in a report row; NaN marks "not available" (rendered
// as "-", as the paper leaves unavailable Static Training points out of
// Figure 11).
type Cell = float64

// Series is one row/curve of an experiment: a label and one value per
// column.
type Series struct {
	Label  string
	Values []Cell
}

// Report is the result of one experiment.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Series  []Series
	// Percent marks values as fractions to render as percentages.
	Percent bool
	// Notes carries per-experiment commentary (paper expectations,
	// scale substitutions).
	Notes []string
}

// WriteText renders the report as an aligned text table.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", strings.Join(append([]string{""}, r.Columns...), "\t"))
	for _, s := range r.Series {
		cells := make([]string, 0, len(s.Values)+1)
		cells = append(cells, s.Label)
		for _, v := range s.Values {
			switch {
			case math.IsNaN(v):
				cells = append(cells, "-")
			case r.Percent:
				cells = append(cells, fmt.Sprintf("%.2f%%", 100*v))
			case v == math.Trunc(v) && math.Abs(v) < 1e15:
				cells = append(cells, fmt.Sprintf("%.0f", v))
			default:
				cells = append(cells, fmt.Sprintf("%.4g", v))
			}
		}
		fmt.Fprintf(tw, "%s\n", strings.Join(cells, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Value returns the cell for (seriesLabel, column), or NaN if absent.
func (r *Report) Value(seriesLabel, column string) float64 {
	col := -1
	for i, c := range r.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return math.NaN()
	}
	for _, s := range r.Series {
		if s.Label == seriesLabel && col < len(s.Values) {
			return s.Values[col]
		}
	}
	return math.NaN()
}

// programCache memoises assembled benchmark programs; experiments reuse
// images across predictor configurations and across the parallel
// per-benchmark runs. Entries carry a sync.Once so concurrent first
// requests for one benchmark build its image exactly once instead of
// stampeding the assembler (the same per-key single-flight the capture
// cache uses for traces).
type programEntry struct {
	once sync.Once
	p    *asm.Program
	err  error
}

var (
	programCacheMu sync.Mutex
	programCache   = map[string]*programEntry{}
)

func buildProgram(b *prog.Benchmark, ds prog.DataSet) (*asm.Program, error) {
	key := b.Name + "\x00" + ds.Name
	programCacheMu.Lock()
	e, ok := programCache[key]
	if !ok {
		e = &programEntry{}
		programCache[key] = e
	}
	programCacheMu.Unlock()
	e.once.Do(func() { e.p, e.err = b.Build(ds) })
	return e.p, e.err
}

// captureCache holds each (benchmark, data set) event stream, captured
// from the CPU interpreter exactly once per process and replayed by every
// measured and training run. See trace.CaptureCache.
var captureCache = trace.NewCaptureCache()

// ResetCaches drops the memoised benchmark programs and captured traces.
// Benchmarks and tests use it to measure cold-cache behaviour; normal
// callers never need it.
func ResetCaches() {
	programCacheMu.Lock()
	programCache = map[string]*programEntry{}
	programCacheMu.Unlock()
	captureCache.Reset()
}

// CaptureCacheStats reports the capture cache's footprint (entries,
// events, approximate bytes).
func CaptureCacheStats() trace.CaptureStats { return captureCache.Stats() }

// newSource returns a fresh looping trace source for (benchmark, data set).
func newSource(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
	p, err := buildProgram(b, ds)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(p, 0)
	if err != nil {
		return nil, err
	}
	return cpu.NewSource(c, true), nil
}

// liveSource builds a fresh generating source for (b, ds): the real
// interpreter normally, or the fault-injection seam when a chaos test
// installed one.
func (o Options) liveSource(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
	if o.openSource != nil {
		return o.openSource(b, ds)
	}
	return newSource(b, ds)
}

// source returns an event source over (b, ds) good for at least n
// conditional branches: a replay cursor over the shared capture normally,
// or a live interpreter when the cache is disabled. Replayed and live
// streams carry identical events — the interpreter is deterministic — so
// every consumer downstream produces identical results either way.
//
// With a Checkpoint attached, the capture's checksum is verified against
// the manifest (and recorded on first sight), so a resumed suite fails
// loudly if the trace it would replay no longer matches the one the
// checkpointed results came from.
func (o Options) source(b *prog.Benchmark, ds prog.DataSet, n uint64) (trace.Source, error) {
	if o.DisableTraceCache {
		return o.liveSource(b, ds)
	}
	key := b.Name + "\x00" + ds.Name
	snap, hit, err := captureCache.CaptureTraced(o.Context, key, n, o.Span, func() (trace.Source, error) {
		return o.liveSource(b, ds)
	})
	if err != nil {
		logx.Or(o.Logger).Warn("trace capture failed",
			"bench", b.Name, "dataset", ds.Name, "conds", n, "err", err)
		return nil, err
	}
	logx.Or(o.Logger).Debug("trace capture",
		"bench", b.Name, "dataset", ds.Name, "conds", n, "hit", hit, "events", snap.Len())
	if o.Checkpoint != nil {
		if err := o.Checkpoint.verifyCapture(captureKey(b.Name, ds.Name, n), snap.Checksum()); err != nil {
			return nil, err
		}
	}
	return snap.Reader(), nil
}

// workers resolves the worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// trainingData runs the training pass sp requires over b's training data
// set. It returns nil when sp needs no training.
func trainingData(sp spec.Spec, b *prog.Benchmark, o Options) (*spec.TrainingData, error) {
	if !sp.NeedsTraining() {
		return nil, nil
	}
	budget := o.TrainBranches
	src, err := o.source(b, b.Training, budget)
	if err != nil {
		return nil, err
	}
	if parent := o.Span; parent != nil {
		tsp := parent.Child("train",
			span.Str("bench", b.Name), span.Uint64("budget", budget))
		defer tsp.End()
	}
	limited := &trace.LimitSource{Src: src, N: budget}
	td := &spec.TrainingData{}
	switch sp.Scheme {
	case spec.SchemeProfiling:
		td.Profile = predictor.NewProfileTrainer()
		err = td.Profile.ObserveTrace(limited)
	default:
		td.Static, err = spec.NewTrainer(sp)
		if err == nil {
			err = td.Static.ObserveTrace(limited)
		}
	}
	if err != nil {
		return nil, err
	}
	return td, nil
}

// RunSpec measures one predictor specification on one benchmark's testing
// data set and returns the full simulation result. Every error is wrapped
// with the spec and benchmark it belongs to, so failures surfacing from
// the experiment fan-out stay attributable. When o.Telemetry is set the
// run carries its observers and is recorded in the collector.
func RunSpec(sp spec.Spec, b *prog.Benchmark, o Options) (sim.Result, error) {
	o = o.withDefaults()
	res, err := runSpec(sp, b, o)
	if err != nil {
		return res, fmt.Errorf("%s/%s: %w", sp, b.Name, err)
	}
	return res, nil
}

func runSpec(sp spec.Spec, b *prog.Benchmark, o Options) (sim.Result, error) {
	td, err := trainingData(sp, b, o)
	if err != nil {
		return sim.Result{}, fmt.Errorf("training: %w", err)
	}
	p, err := spec.Build(sp, td)
	if err != nil {
		return sim.Result{}, err
	}
	src, err := o.source(b, b.Testing, o.CondBranches)
	if err != nil {
		return sim.Result{}, err
	}
	simOpts := sim.Options{
		ContextSwitches: sp.ContextSwitch,
		MaxCondBranches: o.CondBranches,
		Context:         o.Context,
		Span:            o.Span,
	}
	var record recordFunc
	if o.Telemetry != nil {
		simOpts.Observer, simOpts.Telemetry, record = o.Telemetry.instrument(o.CondBranches)
	}
	if o.cellObserver != nil {
		if extra := o.cellObserver(sp, b); extra != nil {
			simOpts.Observer = telemetry.Multi(simOpts.Observer, extra)
		}
	}
	res, err := sim.Run(p, src, simOpts)
	if err == nil && record != nil {
		record(sp, b, res, 1)
	}
	return res, err
}

// joinRunErrors collapses per-benchmark errors into one error carrying
// every failure (nil when none failed). The per-run errors already carry
// their "spec/benchmark:" attribution from RunSpec, so a failed fan-out
// names every run that broke instead of silently dropping all but one.
func joinRunErrors(errs []error) error {
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("experiments: %w", errors.Join(failed...))
}

// Accuracy measures prediction accuracy of sp on b.
func Accuracy(sp spec.Spec, b *prog.Benchmark, o Options) (float64, error) {
	res, err := RunSpec(sp, b, o)
	if err != nil {
		return 0, err
	}
	return res.Accuracy.Rate(), nil
}

// benchColumns is the column layout shared by the accuracy figures:
// the nine benchmarks followed by the three geometric means.
func benchColumns(benchmarks []*prog.Benchmark) []string {
	cols := make([]string, 0, len(benchmarks)+3)
	for _, b := range benchmarks {
		cols = append(cols, b.Name)
	}
	return append(cols, "Int GMean", "FP GMean", "Tot GMean")
}

// accuracyReport measures every (row, benchmark) cell of the report over
// the grid scheduler — same-benchmark rows batched into single replay
// passes, tasks spread over the worker pool — and appends per-row
// geometric means, mirroring the figures' x-axes.
func accuracyReport(id, title string, rows []labeledSpec, o Options) (*Report, error) {
	o = o.withDefaults()
	grid, err := runGrid(rows, o)
	failed := map[string]bool{}
	if err != nil {
		// KeepGoing renders a partial table: failed cells become NaN
		// ("-"), and the *GridError still travels back alongside the
		// report so callers know the table is incomplete.
		var ge *GridError
		if !o.KeepGoing || !errors.As(err, &ge) {
			return nil, err
		}
		for _, ce := range ge.Cells {
			failed[ce.Spec+"\x00"+ce.Benchmark] = true
		}
	}
	rsp := o.Span.Child("report", span.Str("exp", id))
	r := &Report{ID: id, Title: title, Columns: benchColumns(o.Benchmarks), Percent: true}
	for ri, row := range rows {
		values := make([]float64, len(o.Benchmarks))
		for bi, b := range o.Benchmarks {
			if failed[row.label+"\x00"+b.Name] {
				values[bi] = math.NaN()
				continue
			}
			values[bi] = grid[ri][bi].Accuracy.Rate()
		}
		var intAcc, fpAcc []float64
		for bi, b := range o.Benchmarks {
			if b.FP {
				fpAcc = append(fpAcc, values[bi])
			} else {
				intAcc = append(intAcc, values[bi])
			}
		}
		values = append(values, stats.GeoMean(intAcc), stats.GeoMean(fpAcc),
			stats.GeoMean(append(append([]float64{}, intAcc...), fpAcc...)))
		r.Series = append(r.Series, Series{Label: row.label, Values: values})
	}
	rsp.End()
	return r, err
}

type labeledSpec struct {
	label string
	sp    spec.Spec
}

func mustSpecs(specs ...string) []labeledSpec {
	out := make([]labeledSpec, len(specs))
	for i, s := range specs {
		out[i] = labeledSpec{label: s, sp: spec.MustParse(s)}
	}
	return out
}

// Runner is an experiment entry point.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"fig4":   Figure4,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"fig8":   Figure8,
	"fig9":   Figure9,
	"fig10":  Figure10,
	"fig11":  Figure11,
	// Extensions beyond the paper (DESIGN.md §5).
	"ext-taxonomy":   ExtTaxonomy,
	"ext-interleave": ExtInterleave,
	"ext-residual":   ExtResidual,
}

// IDs returns the known experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	rank := func(id string) int {
		switch {
		case strings.HasPrefix(id, "table"):
			return 0
		case strings.HasPrefix(id, "fig"):
			return 1
		default:
			return 2 // extensions last
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if rank(ids[i]) != rank(ids[j]) {
			return rank(ids[i]) < rank(ids[j])
		}
		return len(ids[i]) < len(ids[j]) || len(ids[i]) == len(ids[j]) && ids[i] < ids[j]
	})
	return ids
}

// Run executes the experiment with the given ID. When o.Telemetry is set
// the experiment is timed and its instrumented runs are stamped with the
// experiment ID; experiments that perform no predictor runs (the trace
// summaries: table1-3, fig4) additionally record the reference
// configuration on every benchmark so the metrics document always carries
// per-benchmark telemetry.
func Run(id string, o Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if parent := o.Span; parent != nil {
		sp := parent.Child("exp:" + id)
		o.Span = sp
		defer sp.End()
	}
	t := o.Telemetry
	if t == nil {
		return r(o)
	}
	start := t.beginExperiment(id)
	rep, err := r(o)
	if err == nil && t.runsSinceBegin() == 0 {
		err = stampReference(o)
	}
	t.endExperiment(id, start)
	// A KeepGoing run can return a partial report alongside its
	// *GridError; keep both so callers can render the partial table.
	return rep, err
}
