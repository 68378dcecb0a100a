// Fast-path dispatch: Run and RunMany transparently swap the interpretive
// runner for the flat replay kernel (internal/sim/fastpath) when a cell
// qualifies. Eligibility is deliberately conservative — the kernel only
// serves runs whose observable behaviour it reproduces bit for bit.
package sim

import (
	"fmt"
	"sync/atomic"

	"twolevel/internal/predictor"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/stats"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// Decline names why a replay cell was not served by the flat kernel.
type Decline uint8

const (
	// Served: the kernel replays the cell.
	Served Decline = iota
	// DeclineOptOut: Options.DisableFastpath pinned the runner.
	DeclineOptOut
	// DeclineObserver: an Observer wants per-event callbacks.
	DeclineObserver
	// DeclinePipeline: the §3.1 pipelined timing model (depth > 0).
	DeclinePipeline
	// DeclineSource: the source is not a packed snapshot reader.
	DeclineSource
	// DeclinePredictor: the predictor's state does not flatten.
	DeclinePredictor
	numDeclines
)

var declineNames = [numDeclines]string{
	"", "opt_out", "observer", "pipeline", "non_snapshot_source", "unsupported_predictor",
}

// String returns the reason's metric label ("" for Served).
func (d Decline) String() string { return declineNames[d] }

// declines counts, per reason, the replay cells Run and RunMany kept off
// the kernel since the process started.
var declines [numDeclines]atomic.Uint64

// FastpathDecline returns why Run would not hand (p, src, opts) to the
// flat replay kernel, or Served when it would. The kernel requires:
//
//   - no explicit opt-out (Options.DisableFastpath);
//   - no Observer — per-event callbacks would reintroduce the interface
//     calls the kernel exists to remove (a Telemetry sink does NOT cost
//     eligibility: the kernel folds it from its mispredict bits);
//   - the depth-0 base model — the pipelined timing model interleaves
//     predict and update in ways flat tables do not express;
//   - a packed source (*trace.SnapshotReader) — the kernel's plan
//     decodes the snapshot's branches into columns once, instead of
//     decoding event by event;
//   - a predictor whose state flattens (fastpath.Supported): the static
//     schemes (AlwaysTaken, BTFN, Profiling), the BTB designs, or any
//     two-level predictor (speculative history at depth 0 is the base
//     model).
//
// The reasons are checked in that order, and the first that applies is
// returned.
func FastpathDecline(p predictor.Predictor, src trace.Source, opts Options) Decline {
	switch {
	case opts.DisableFastpath:
		return DeclineOptOut
	case opts.Observer != nil:
		return DeclineObserver
	case opts.PipelineDepth > 0:
		return DeclinePipeline
	}
	if _, ok := src.(*trace.SnapshotReader); !ok {
		return DeclineSource
	}
	if !fastpath.Supported(p) {
		return DeclinePredictor
	}
	return Served
}

// FastpathEligible reports whether Run would hand (p, src, opts) to the
// flat replay kernel instead of the interpretive runner
// (FastpathDecline(p, src, opts) == Served).
func FastpathEligible(p predictor.Predictor, src trace.Source, opts Options) bool {
	return FastpathDecline(p, src, opts) == Served
}

// countDecline records one cell the kernel did not serve.
func countDecline(d Decline) {
	if d != Served {
		declines[d].Add(1)
	}
}

// DeclineMetrics is a telemetry.Source over the decline counters: one
// counter row per reason, labelled reason="…". A fallback from the
// kernel to the slower runner is a counted, visible event.
func DeclineMetrics() []telemetry.Metric {
	const name = "twolevel_fastpath_declines_total"
	const help = "Replay cells the flat kernel did not serve, by reason."
	ms := make([]telemetry.Metric, 0, numDeclines-1)
	for d := Served + 1; d < numDeclines; d++ {
		m := telemetry.CounterMetric(name, help, declines[d].Load())
		m.Labels = fmt.Sprintf("reason=%q", d)
		ms = append(ms, m)
	}
	return ms
}

// fastpathConfig translates Options for the kernel, resolving the
// context-switch quantum default the runner would apply.
func fastpathConfig(opts Options) fastpath.Config {
	interval := opts.CSInterval
	if interval == 0 {
		interval = DefaultCSInterval
	}
	cfg := fastpath.Config{
		ContextSwitches: opts.ContextSwitches,
		CSInterval:      interval,
		MaxCondBranches: opts.MaxCondBranches,
		Context:         opts.Context,
		Shards:          opts.Shards,
	}
	if t := opts.Telemetry; t != nil {
		cfg.Interval = t.Interval
		cfg.TopPCs = t.TopK
		if t.TopK > 0 {
			cfg.Warmup = telemetry.WarmupBoundary(opts.MaxCondBranches)
		}
		cfg.Log = t.Forensics != nil
	}
	return cfg
}

// countersToResult converts kernel counters to the public Result. The
// kernel never repredicts (depth 0 only), so Repredictions stays 0.
func countersToResult(c fastpath.Counters) Result {
	return Result{
		Accuracy:          stats.Accuracy{Predictions: c.Predictions, Correct: c.Correct},
		ByClass:           c.ByClass,
		Instructions:      c.Instructions,
		Traps:             c.Traps,
		ContextSwitches:   c.ContextSwitches,
		TakenCond:         c.TakenCond,
		TargetPredictions: c.TargetPredictions,
		TargetCorrect:     c.TargetCorrect,
	}
}
