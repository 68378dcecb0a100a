// Package twolevel is a complete implementation and experimental
// reproduction of Yeh & Patt's "Alternative Implementations of Two-Level
// Adaptive Branch Prediction".
//
// The package is the public face of the repository: it re-exports the
// vocabulary types (branches, traces, predictors, specifications) and
// provides constructors and runners for everything a user needs:
//
//   - Build any predictor from the paper's naming convention
//     (NewPredictor, NewTrainedPredictor): the Two-Level Adaptive
//     variations GAg/PAg/PAp with any of the Figure 2 automata, the
//     Static Training schemes GSg/PSg, Branch Target Buffer designs and
//     the static schemes.
//   - Generate branch traces from the nine built-in SPEC-like benchmark
//     programs (Benchmarks, NewBenchmarkSource) or read/write portable
//     trace files (WriteTrace, OpenTrace, and the text variants).
//   - Simulate a predictor over a trace (Simulate), with optional
//     context-switch injection and the §3.1 pipelined timing model.
//   - Estimate hardware cost with the §3.4 model (EstimateCost).
//   - Regenerate every table and figure of the paper's evaluation
//     (RunExperiment, ExperimentIDs).
//   - Collect run telemetry on the replay kernel (SimOptions.Telemetry,
//     a SimTelemetry sink: interval series, hot branches, forensics;
//     RunStatsFor), or a metrics document across experiments
//     (ExperimentTelemetry).
//
// # Errors and panics
//
// Every exported constructor and runner in this package returns errors
// for invalid input — malformed spec strings, out-of-range configuration
// fields, broken trace streams — and never panics on caller mistakes.
// Internal packages reserve panics for programmer errors (reaching one
// through this API is a bug in the repository). The experiment pipeline
// extends the contract to runtime faults: grid failures come back as
// attributed ExperimentCellError values, recovered panics included, and
// runs are cancellable via ExperimentOptions.Context /
// SimOptions.Context. See EXPERIMENTS.md, "Failure semantics".
//
// A minimal use:
//
//	p, _ := twolevel.NewPredictor("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
//	src, _ := twolevel.NewBenchmarkSource("eqntott", false)
//	res, _ := twolevel.Simulate(p, src, twolevel.SimOptions{MaxCondBranches: 100000})
//	fmt.Printf("accuracy: %.2f%%\n", 100*res.Accuracy.Rate())
package twolevel

import (
	"fmt"
	"io"
	"log/slog"
	"sort"

	"twolevel/internal/analysis"
	"twolevel/internal/asm"
	"twolevel/internal/automaton"
	"twolevel/internal/buildinfo"
	"twolevel/internal/cost"
	"twolevel/internal/cpu"
	"twolevel/internal/experiments"
	"twolevel/internal/isa"
	"twolevel/internal/logx"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// Core vocabulary, re-exported from the internal packages. The aliases
// are transparent: a Branch here is the same type the simulator uses.
type (
	// Branch is one dynamic branch: address, target, class, outcome.
	Branch = trace.Branch
	// Event is one trace element: a branch or a trap, with the
	// instruction count since the previous event.
	Event = trace.Event
	// Class is a branch class (conditional, call, return, ...).
	Class = trace.Class
	// Source is a stream of trace events ending with io.EOF.
	Source = trace.Source
	// Trace is an in-memory event sequence.
	Trace = trace.Trace
	// TraceStats summarises a trace (per-class counts, static branch
	// sites, taken rates).
	TraceStats = trace.Stats
	// TraceSnapshot is an immutable packed event sequence. Readers over
	// a snapshot qualify for the flat replay kernel, which decodes its
	// branches into columns once instead of event by event.
	TraceSnapshot = trace.Snapshot

	// Predictor is the interface every scheme implements: Predict,
	// Update, ContextSwitch, Name.
	Predictor = predictor.Predictor

	// Spec is a parsed predictor configuration in the paper's naming
	// convention.
	Spec = spec.Spec

	// SimOptions configures a simulation run (context switches,
	// branch budget, pipeline depth).
	SimOptions = sim.Options
	// SimResult aggregates a simulation run.
	SimResult = sim.Result
	// SimTelemetry is the SimOptions.Telemetry sink: interval series,
	// per-PC profile and Forensics, collected on the replay kernel.
	SimTelemetry = sim.Telemetry

	// Benchmark is one of the nine generated SPEC-like programs.
	Benchmark = prog.Benchmark
	// DataSet identifies a benchmark input configuration (Table 2).
	DataSet = prog.DataSet

	// CostBreakdown itemises a predictor's estimated hardware cost
	// (Equation 3).
	CostBreakdown = cost.Breakdown
	// CostParams are the structural parameters of the cost model.
	CostParams = cost.Params
	// CostConstants are the base costs C_s..C_a of §3.4.
	CostConstants = cost.Constants

	// ExperimentOptions configures a table/figure reproduction.
	ExperimentOptions = experiments.Options
	// Report is a reproduced table or figure.
	Report = experiments.Report
)

// Branch classes.
const (
	Cond     = trace.Cond
	Uncond   = trace.Uncond
	Call     = trace.Call
	Return   = trace.Return
	Indirect = trace.Indirect
)

// DefaultCostConstants are the base-cost constants used throughout the
// repository's cost figures.
var DefaultCostConstants = cost.Defaults

// ParseSpec parses a predictor configuration string, e.g.
// "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)".
func ParseSpec(s string) (Spec, error) { return spec.Parse(s) }

// NewPredictor builds the predictor described by the specification
// string. Schemes that require a training pass (GSg, PSg, Profiling)
// are rejected; use NewTrainedPredictor for those.
func NewPredictor(s string) (Predictor, error) {
	sp, err := spec.Parse(s)
	if err != nil {
		return nil, err
	}
	if sp.NeedsTraining() {
		return nil, fmt.Errorf("twolevel: %s needs a training pass; use NewTrainedPredictor", sp.Scheme)
	}
	return spec.Build(sp, nil)
}

// NewTrainedPredictor builds a training-based predictor (GSg, PSg or
// Profiling), running its profiling pass over the conditional branches of
// training first.
func NewTrainedPredictor(s string, training Source) (Predictor, error) {
	sp, err := spec.Parse(s)
	if err != nil {
		return nil, err
	}
	if !sp.NeedsTraining() {
		return nil, fmt.Errorf("twolevel: %s takes no training pass; use NewPredictor", sp.Scheme)
	}
	td, err := spec.Train(sp, training)
	if err != nil {
		return nil, err
	}
	return spec.Build(sp, td)
}

// Simulate drives p over the event stream src, predicting every
// conditional branch.
func Simulate(p Predictor, src Source, opts SimOptions) (SimResult, error) {
	return sim.Run(p, src, opts)
}

// SimulateMany drives several predictors down a single pass of src: each
// event is decoded once and fed to every still-active predictor. Results
// are bit-identical to calling Simulate once per predictor over its own
// copy of the stream; options (budgets, context switches, pipeline depth,
// observers) may differ per predictor. opts must have one entry per
// predictor.
func SimulateMany(preds []Predictor, src Source, opts []SimOptions) ([]SimResult, error) {
	return sim.RunMany(preds, src, opts)
}

// Benchmarks returns the nine built-in benchmarks in Table 1 order.
func Benchmarks() []*Benchmark { return prog.All }

// BenchmarkByName finds a built-in benchmark ("eqntott", "gcc", ...).
func BenchmarkByName(name string) (*Benchmark, error) { return prog.ByName(name) }

// NewBenchmarkSource builds the named benchmark and returns a looping
// trace source over its testing data set (or its training data set when
// training is true). The source never runs dry: the program restarts with
// fresh data whenever it finishes.
func NewBenchmarkSource(name string, training bool) (Source, error) {
	b, err := prog.ByName(name)
	if err != nil {
		return nil, err
	}
	ds := b.Testing
	if training {
		ds = b.Training
	}
	return b.NewSource(ds)
}

// LimitConditional wraps src so it ends (io.EOF) after n conditional
// branches have streamed through.
func LimitConditional(src Source, n uint64) Source {
	return &trace.LimitSource{Src: src, N: n}
}

// PackTrace drains src into a packed snapshot. Simulate runs over
// snapshot readers take the flat replay kernel whenever the predictor
// and options qualify (see SimOptions.DisableFastpath).
func PackTrace(src Source) (TraceSnapshot, error) {
	var p trace.Packed
	for {
		e, err := src.Next()
		if err == io.EOF {
			return p.View(p.Len()), nil
		}
		if err != nil {
			return TraceSnapshot{}, err
		}
		p.Append(e)
	}
}

// SummarizeTrace drains src and returns its statistics.
func SummarizeTrace(src Source) (*TraceStats, error) { return trace.Summarize(src) }

// WriteTrace encodes src to w in the compact binary trace format.
func WriteTrace(w io.Writer, src Source) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	return tw.WriteAll(src)
}

// OpenTrace decodes a binary trace stream written by WriteTrace.
func OpenTrace(r io.Reader) (Source, error) { return trace.NewFileReader(r) }

// WriteTraceText encodes src to w in the line-oriented text format.
func WriteTraceText(w io.Writer, src Source) error { return trace.WriteText(w, src) }

// OpenTraceText decodes the text trace format.
func OpenTraceText(r io.Reader) Source { return trace.NewTextReader(r) }

// EstimateCost evaluates the §3.4 hardware cost model for the predictor
// specification with the default constants. BTB, static and ideal-table
// schemes have no cost under the model and are rejected.
func EstimateCost(s string) (CostBreakdown, error) {
	sp, err := spec.Parse(s)
	if err != nil {
		return CostBreakdown{}, err
	}
	return cost.EstimateSpec(sp)
}

// EstimateCostWith evaluates the cost model with explicit structural
// parameters and constants.
func EstimateCostWith(p CostParams, c CostConstants) (CostBreakdown, error) {
	return cost.Estimate(p, c)
}

// ExperimentIDs lists the reproducible tables and figures
// (table1..table3, fig4..fig11) in presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures, or one
// of the extension experiments ("ext-gap", "ext-interleave").
func RunExperiment(id string, opts ExperimentOptions) (*Report, error) {
	return experiments.Run(id, opts)
}

// Fault-tolerance vocabulary of the experiment pipeline: attributed
// failures, panic containment and checkpoint/resume. See the "Failure
// semantics" section of EXPERIMENTS.md.
type (
	// ExperimentGridError aggregates every failed cell of an experiment
	// grid; it travels alongside the partial report under
	// ExperimentOptions.KeepGoing.
	ExperimentGridError = experiments.GridError
	// ExperimentCellError attributes one failure to its exact
	// (spec, benchmark) cell.
	ExperimentCellError = experiments.CellError
	// ExperimentPanicError is a panic recovered inside a grid worker,
	// converted into an ordinary attributed error.
	ExperimentPanicError = experiments.PanicError
	// ExperimentCheckpoint is a resumable JSON manifest of completed
	// grid cells; attach one via ExperimentOptions.Checkpoint.
	ExperimentCheckpoint = experiments.Checkpoint
)

// ErrExperimentCaptureMismatch reports that a checkpoint manifest was
// written against a different trace than the one now being generated;
// the resume refuses rather than mixing results.
var ErrExperimentCaptureMismatch = experiments.ErrCaptureMismatch

// OpenExperimentCheckpoint opens or creates a checkpoint manifest. A
// missing file yields an empty checkpoint (a cold run); an existing one
// restores its completed cells, so a resumed suite skips finished work
// and reproduces bit-identical output.
func OpenExperimentCheckpoint(path string) (*ExperimentCheckpoint, error) {
	return experiments.OpenCheckpoint(path)
}

// TraceCaptureStats summarises the experiment harness's capture cache:
// how many (benchmark, data set) streams are materialised and their
// packed footprint.
type TraceCaptureStats = trace.CaptureStats

// ExperimentCaptureStats reports the current capture cache footprint.
func ExperimentCaptureStats() TraceCaptureStats { return experiments.CaptureCacheStats() }

// ResetExperimentCaches drops the experiment harness's memoised benchmark
// programs and captured traces. Benchmarks measuring cold-cache behaviour
// use it; normal callers never need to.
func ResetExperimentCaches() { experiments.ResetCaches() }

// NewMultiplexSource interleaves several trace sources at an instruction
// quantum with per-process address tagging and switch traps — a real
// multi-process context-switch workload (the ext-interleave experiment).
func NewMultiplexSource(sources []Source, quantum uint64) (Source, error) {
	return sim.NewMultiplex(sources, quantum)
}

// MispredictBreakdown characterises the residual mispredictions of an
// instrumented PAg predictor over src: every wrong prediction is
// attributed to a cause (BHT miss, cold or in-training pattern entry,
// pattern interference, or inherent branch noise) — the §6 "examine the
// 3 percent" analysis. entries 0 selects the ideal BHT.
type MispredictBreakdown = analysis.Breakdown

// AnalyzeResidual runs the misprediction-cause analysis with k history
// bits and an entries x assoc BHT, over at most budget conditional
// branches (0 = drain src).
func AnalyzeResidual(src Source, k, entries, assoc int, budget uint64) (MispredictBreakdown, error) {
	return analysis.Analyze(src, k, entries, assoc, budget)
}

// Automaton re-exports the pattern-history automaton kinds for users
// constructing predictors programmatically via TwoLevelConfig.
type Automaton = automaton.Kind

// AutomatonState is a pattern-history state (for the PatternInit
// ablation knob of TwoLevelConfig).
type AutomatonState = automaton.State

// AutomatonMachine is a concrete Moore machine (for the Machine override
// of TwoLevelConfig).
type AutomatonMachine = automaton.Machine

// NewSaturatingAutomaton returns an n-bit saturating up-down counter
// machine — the generalisation of A2 whose width the §3.4 cost model
// calls s. Programmatic configurations only (the naming convention has
// no field for it).
func NewSaturatingAutomaton(bits int) *AutomatonMachine {
	return automaton.NewSaturating(bits)
}

// The Figure 2 automata.
const (
	LastTime = automaton.LastTime
	A1       = automaton.A1
	A2       = automaton.A2
	A3       = automaton.A3
	A4       = automaton.A4
)

// TwoLevelConfig re-exports the programmatic configuration of a
// Two-Level Adaptive predictor for users who want options the naming
// convention does not carry (speculative history, PHT inheritance).
type TwoLevelConfig = predictor.TwoLevelConfig

// Variations of Two-Level Adaptive Branch Prediction (GAp is the
// repository's extension completing the {G,P}x{g,p} grid).
const (
	GAg = predictor.GAg
	PAg = predictor.PAg
	PAp = predictor.PAp
	GAp = predictor.GAp
)

// NewTwoLevel builds a Two-Level Adaptive predictor from a programmatic
// configuration.
func NewTwoLevel(cfg TwoLevelConfig) (*predictor.TwoLevel, error) {
	return predictor.NewTwoLevel(cfg)
}

// Telemetry vocabulary: the SimTelemetry sink collects interval series,
// hot-branch profiles and forensics on the replay kernel, and RunStatsFor
// derives a run's cost summary from its result. A custom Observer hooks
// the simulator's event loop (SimOptions.Observer) without touching the
// nil-observer hot path, at the price of the replay kernel.
type (
	// Observer receives simulator callbacks for one run: Start/Finish
	// around the run, OnPredict/OnResolve per conditional branch,
	// OnTrap/OnContextSwitch for the rarer events.
	Observer = telemetry.Observer
	// ObserverRunInfo describes the run an observer is attached to.
	ObserverRunInfo = telemetry.RunInfo
	// HotBranch is one row of a hot-branch report
	// (SimTelemetry.HotBranches).
	HotBranch = telemetry.HotBranch
	// IntervalSample is one point of an interval accuracy series
	// (SimTelemetry.Samples): warm-up and context-switch recovery curves.
	IntervalSample = telemetry.Sample
	// RunMetrics is a run's wall-clock, throughput, allocation and
	// table-occupancy summary (RunStatsFor).
	RunMetrics = telemetry.RunMetrics
	// PredictorOccupancy reports how much of a predictor's tables a run
	// actually touched.
	PredictorOccupancy = predictor.Occupancy
	// PredictorInspector is implemented by predictors that can report
	// table occupancy (TwoLevel and BTB do).
	PredictorInspector = predictor.Inspector

	// ExperimentTelemetry collects per-run metrics across experiment
	// runs; attach one to ExperimentOptions.Telemetry. Hot branches,
	// interval series and forensics ride the SimTelemetry sink and stats
	// are derived from the result, so instrumented runs stay on the
	// replay kernel.
	ExperimentTelemetry = experiments.Telemetry
	// ExperimentRunMetrics is one instrumented run in a metrics
	// document.
	ExperimentRunMetrics = experiments.RunMetrics
	// MetricsDocument is the metrics.json schema: experiments, runs and
	// optionally the reports themselves.
	MetricsDocument = experiments.MetricsDocument
	// ReportJSON is the machine-readable form of a Report.
	ReportJSON = experiments.ReportJSON
)

// DefaultExperimentBranches is the default per-benchmark conditional
// branch budget of the experiments.
const DefaultExperimentBranches = experiments.DefaultCondBranches

// CostStamp is one reading of the clock and the allocation counters.
type CostStamp = experiments.CostStamp

// ReadCost reads the clock and the allocation counters.
func ReadCost() CostStamp { return experiments.ReadCost() }

// RunStatsFor builds the RunMetrics of a completed run of p from its
// result and two cost stamps taken around it (ReadCost before the run,
// ReadCost after it): the event counts, occupancy, time and allocations
// metrics.json records.
func RunStatsFor(res SimResult, p Predictor, from, to CostStamp) RunMetrics {
	return experiments.RunStats(res, p, from, to)
}

// Mispredict forensics, live monitoring and structured logging: the
// observability vocabulary behind brexp -forensics / -listen and
// brsim -explain.
type (
	// Forensics builds a mispredict post-mortem: a bounded flight
	// recorder snapshotting mispredict bursts plus per-PC
	// hard-to-predict profiles (per-history-pattern outcome histograms,
	// automaton transition counts, warmup-vs-steady miss split, history
	// entropy), folded on demand from the run's log of resolved
	// branches. Set one on SimTelemetry.Forensics and the run hands it
	// the replay's log.
	Forensics = telemetry.Forensics
	// ForensicsConfig sizes a Forensics; the zero value gets
	// sensible defaults.
	ForensicsConfig = telemetry.ForensicsConfig
	// ForensicsReport is the deterministic report a Forensics
	// produces.
	ForensicsReport = telemetry.ForensicsReport
	// PCForensics is one static branch's forensic profile.
	PCForensics = telemetry.PCForensics
	// ForensicsPatternStat is one history pattern's outcome histogram.
	ForensicsPatternStat = telemetry.PatternStat
	// FlightSnapshot is one flight-recorder capture around a mispredict
	// burst; FlightEvent is one recorded branch resolution.
	FlightSnapshot = telemetry.FlightSnapshot
	FlightEvent    = telemetry.FlightEvent

	// BranchExplanation is the human-readable diagnosis ExplainBranch
	// derives from a PCForensics profile; BranchVerdict is its
	// classification (warmup-dominated, diffuse-history, ...).
	BranchExplanation = analysis.Explanation
	BranchVerdict     = analysis.Verdict

	// ExperimentMonitor is the live-progress counter set of a grid run;
	// attach one via ExperimentOptions.Monitor and serve Handler() to get
	// /metrics, /progress and /debug/pprof while a suite runs.
	ExperimentMonitor = experiments.Monitor
	// MonitorSnapshot is a point-in-time view of an ExperimentMonitor:
	// the /progress payload and the monitor section of metrics.json.
	MonitorSnapshot = experiments.MonitorSnapshot
	// ForensicsDocument is the forensics.json schema (brexp -forensics).
	ForensicsDocument = experiments.ForensicsDocument
	// ExperimentForensicsRun is one run's forensics report with its grid
	// coordinates.
	ExperimentForensicsRun = experiments.ForensicsRun

	// BuildInfo is the binary's build provenance (module version, VCS
	// revision); it stamps metrics and forensics documents and backs the
	// -version flag of every binary.
	BuildInfo = buildinfo.Info

	// SpanTracer collects hierarchical timed spans across a run; hand its
	// root span to SimOptions.Span or ExperimentOptions.Span and it costs
	// nothing when absent (nil spans no-op). Behind brexp/brsim
	// -trace-out and -span-summary.
	SpanTracer = span.Tracer
	// Span is one timed region of a traced run; children nest
	// (suite → exp → task → capture/train/replay/forensics → report).
	Span = span.Span
	// SpanAttr is one key/value annotation on a Span.
	SpanAttr = span.Attr
)

// NewForensics returns a mispredict-forensics recorder for a
// SimTelemetry sink.
func NewForensics(cfg ForensicsConfig) *Forensics { return telemetry.NewForensics(cfg) }

// ExplainBranch diagnoses why one static branch mispredicts from its
// forensic profile (brsim -explain).
func ExplainBranch(p PCForensics) BranchExplanation { return analysis.Explain(p) }

// NewExperimentMonitor returns a live grid monitor with its clock
// started.
func NewExperimentMonitor() *ExperimentMonitor { return experiments.NewMonitor() }

// NewSpanTracer returns a span tracer; open a root span with Root and
// thread it through SimOptions.Span / ExperimentOptions.Span, then
// export with WriteChromeTrace (chrome://tracing JSON) or
// Summary().WriteText (aggregated phase-latency tree).
func NewSpanTracer() *SpanTracer { return span.New() }

// ReadBuildInfo reports the running binary's build provenance. It never
// fails: without embedded build info every field falls back to
// "unknown".
func ReadBuildInfo() BuildInfo { return buildinfo.Read() }

// NewLogger builds the structured logger behind the -log-format /
// -log-level flags: "text" (default) or "json" encoding at "debug",
// "info" (default), "warn" or "error". Unknown values are errors.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	return logx.New(w, format, level)
}

// Program is an assembled ISA program (a memory image plus labels) —
// write your own workloads in the repository's assembly language and run
// predictors over them.
type Program = asm.Program

// AssembleProgram assembles source text (see internal/asm for the
// syntax) into a runnable program.
func AssembleProgram(source string) (*Program, error) {
	return asm.Assemble(source)
}

// DisassembleProgram writes a listing of the program's text segment.
func DisassembleProgram(p *Program, w io.Writer) error {
	return asm.Disassemble(p, w)
}

// NewProgramSource executes an assembled program on a fresh CPU and
// streams its branch events. With loop set the program restarts (with a
// bumped run counter at cpu.RunCounterAddr) whenever it halts; without
// it the source ends at the first HALT.
func NewProgramSource(p *Program, loop bool) (Source, error) {
	c, err := cpu.New(p, 0)
	if err != nil {
		return nil, err
	}
	return cpu.NewSource(c, loop), nil
}

// OpCount is one row of an instruction-mix profile.
type OpCount struct {
	// Op is the mnemonic.
	Op string
	// Count is the number of retirements.
	Count uint64
	// Share is Count over all retirements.
	Share float64
}

// ProfileProgram executes prog once (or, with budget > 0, until budget
// conditional branches have retired, restarting as needed) with
// per-opcode profiling enabled and returns the instruction mix sorted by
// frequency.
func ProfileProgram(prog *Program, budget uint64) ([]OpCount, error) {
	c, err := cpu.New(prog, 0)
	if err != nil {
		return nil, err
	}
	c.EnableProfile()
	if budget == 0 {
		if _, err := c.Run(0); err != nil {
			return nil, err
		}
	} else {
		src := LimitConditional(cpu.NewSource(c, true), budget)
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
		}
	}
	counts := c.Profile()
	var total uint64
	for _, n := range counts {
		total += n
	}
	var out []OpCount
	for op, n := range counts {
		if n == 0 {
			continue
		}
		out = append(out, OpCount{Op: isa.Op(op).String(), Count: n, Share: float64(n) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out, nil
}
