// Fast-path dispatch: Run and RunMany transparently swap the interpretive
// runner for the flat replay kernel (internal/sim/fastpath) when a cell
// qualifies. Eligibility is deliberately conservative — the kernel only
// serves runs whose observable behaviour it reproduces bit for bit.
package sim

import (
	"twolevel/internal/predictor"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/stats"
	"twolevel/internal/trace"
)

// FastpathEligible reports whether Run would hand (p, src, opts) to the
// flat replay kernel instead of the interpretive runner. The kernel
// requires:
//
//   - a packed source (*trace.SnapshotReader) — the kernel indexes the
//     snapshot's SoA columns directly instead of decoding events;
//   - the depth-0 base model — the pipelined timing model interleaves
//     predict and update in ways flat tables do not express;
//   - no Observer — per-event callbacks would reintroduce the interface
//     calls the kernel exists to remove (a Telemetry sink does NOT cost
//     eligibility: the kernel accumulates it natively);
//   - a predictor whose state flattens (fastpath.Supported): the static
//     schemes (AlwaysTaken, BTFN, Profiling), the BTB designs, or a
//     two-level predictor without speculative history.
//
// Even when eligible, kernel construction can still decline
// (fastpath.New), in which case the interpretive runner serves the run.
func FastpathEligible(p predictor.Predictor, src trace.Source, opts Options) bool {
	if opts.DisableFastpath || opts.PipelineDepth > 0 || opts.Observer != nil {
		return false
	}
	if _, ok := src.(*trace.SnapshotReader); !ok {
		return false
	}
	return fastpath.Supported(p)
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
			cfg.Warmup = warmupBoundary(opts.MaxCondBranches)
		}
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
