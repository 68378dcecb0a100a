// Package fastpath is the branchless fast-replay kernel: a specialized
// replay engine that drives flat-table predict+update loops directly over
// a packed trace snapshot's SoA columns, bypassing the per-event
// trace.Source / predictor.Predictor interface calls of the interpretive
// runner in package sim.
//
// The kernel runs only when a replay cell qualifies (see Supported and
// sim's dispatch): depth-0 base model, no Observer, a *trace.SnapshotReader
// source, and a predictor whose state flattens — every scheme of the
// paper's comparison: the static AlwaysTaken, BTFN and Profiling schemes,
// the Branch Target Buffer designs (either miss policy), and a
// *predictor.TwoLevel of any taxonomy variation (GAg/PAg/PAp plus the
// GAp/GAs/PAs/SAg/SAs/SAp extensions, practical or ideal BHT, custom
// machines, Static Training presets) without speculative history.
// Everything else falls back to the interpretive runner.
//
// Mechanics: a two-level predictor already keeps its tables in the flat
// layout of package flat — δ/λ as a packed [state<<1|outcome] transition
// array and a λ bitmask, history registers as raw uint32 values with a
// spare freshness bit (§4.2), the branch history table as parallel
// arrays, pattern tables as state slices — so the kernel replays on the
// predictor's own flat.State in place, with nothing to copy in or out. A
// BTB is a flat.State too (the practical table with a per-slot automaton
// state), and a Profile is a flat.PCIndex over a dense direction array;
// runGeneric and runStatic serve them on the same objects. Per event the
// hot loop does a handful of array loads and stores — no interface
// calls, no Event struct materialisation.
//
// Fidelity: a kernel run is bit-identical to the interpretive runner —
// the same Result counters and the same final predictor state, LRU
// stamps included: both paths call the same flat step functions, and the
// kernel's fused per-branch lookup advances the LRU clock by
// flat.BranchTouches, the interpretive Predict-plus-Update count. The
// equivalence suite in package sim deep-equals both paths' Results and
// predictors across the full spec grid. A sharded run gives each worker
// its own clock, so its stamps match the serial run's only in order.
package fastpath

import (
	"context"

	"twolevel/internal/flat"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// Config carries the sim options the kernel honours. The dispatching
// caller guarantees the rest of the option surface is at its zero value
// (no observer, no pipeline).
type Config struct {
	// ContextSwitches enables trap/quantum context-switch injection.
	ContextSwitches bool
	// CSInterval is the instruction quantum (0 = sim's default is
	// resolved by the caller; the kernel requires a concrete value).
	CSInterval uint64
	// MaxCondBranches bounds the run (0 = drain the snapshot).
	MaxCondBranches uint64
	// Context, when non-nil, is polled every few thousand events.
	Context context.Context
	// Shards requests PC-partitioned parallel replay with a
	// deterministic counter merge (<= 1 means serial). Honoured only for
	// variations whose first and second levels are both non-global; the
	// kernel silently runs serial otherwise.
	Shards int
	// Interval, when > 0, accumulates an accuracy sample every Interval
	// resolved conditional branches — the kernel-native equivalent of
	// the telemetry.IntervalSeries observer, bit-identical by the
	// equivalence suite.
	Interval uint64
	// TopPCs, when > 0, accumulates a per-PC mispredict profile and
	// reports the TopPCs worst branches (telemetry.HotBranches order).
	TopPCs int
	// Warmup is the resolved-branch index bounding the warmup-miss
	// split of the per-PC profile (0 = attribute every miss to steady
	// state, matching Forensics with an unknown budget).
	Warmup uint64
}

// Counters mirrors sim.Result for the depth-0 base model (Repredictions
// is structurally zero on this path). Package sim converts.
type Counters struct {
	Predictions, Correct             uint64
	ByClass                          [trace.NumClasses]uint64
	Instructions                     uint64
	Traps                            uint64
	ContextSwitches                  uint64
	TakenCond                        uint64
	TargetPredictions, TargetCorrect uint64
}

// merge adds o into c (deterministic: plain field sums).
func (c *Counters) merge(o Counters) {
	c.Predictions += o.Predictions
	c.Correct += o.Correct
	for i := range c.ByClass {
		c.ByClass[i] += o.ByClass[i]
	}
	c.Instructions += o.Instructions
	c.Traps += o.Traps
	c.ContextSwitches += o.ContextSwitches
	c.TakenCond += o.TakenCond
	c.TargetPredictions += o.TargetPredictions
	c.TargetCorrect += o.TargetCorrect
}

// checkInterval matches sim's cancellation poll cadence.
const checkInterval = 4096

// Supported reports whether the kernel can replay p. The caller checks
// the option-side conditions (depth 0, nil observer, snapshot source);
// this is the predictor-side half of eligibility.
func Supported(p predictor.Predictor) bool {
	switch tp := p.(type) {
	case predictor.AlwaysTaken, predictor.BTFN:
		return true
	case *predictor.Profile:
		return tp != nil
	case *predictor.BTB:
		return tp != nil
	case *predictor.TwoLevel:
		return tp != nil && !tp.Config().SpeculativeHistory
	default:
		return false
	}
}

// kernelKind selects the hot loop.
type kernelKind uint8

const (
	kindAlwaysTaken kernelKind = iota
	kindBTFN
	kindProfile
	kindTwoLevel
	kindBTB
)

// Kernel is one flattened replay cell. Build one with New and drive it
// with Run; the predictor's state is updated in place as it goes. A
// Kernel is single-use.
type Kernel struct {
	kind kernelKind
	cfg  Config

	st   *flat.State        // the predictor's own tables (kindTwoLevel, kindBTB)
	prof *predictor.Profile // kindProfile only

	c       Counters
	sinceCS uint64

	tap *Tap // kernel-native telemetry accumulator; nil when off
}

// New builds a kernel over p. ok is false when p is not Supported.
func New(p predictor.Predictor, cfg Config) (*Kernel, bool) {
	if cfg.CSInterval == 0 {
		cfg.CSInterval = 1 // caller resolves the default; never divide by zero
	}
	if !Supported(p) {
		return nil, false
	}
	k := &Kernel{cfg: cfg, tap: NewTap(cfg)}
	switch tp := p.(type) {
	case predictor.BTFN:
		k.kind = kindBTFN
	case *predictor.Profile:
		k.kind, k.prof = kindProfile, tp
	case *predictor.TwoLevel:
		k.kind, k.st = kindTwoLevel, tp.State()
	case *predictor.BTB:
		k.kind, k.st = kindBTB, tp.State()
	}
	return k, true
}

// StopIndex returns the exclusive end index of a replay of snap from
// start under budget max: the index just past the max-th conditional
// branch after start (the interpretive runner's budget semantics — it
// stops before consuming the event after the one that met the budget),
// or snap.Len() when the budget is 0 or the snapshot ends first. Run
// computes it per kernel; sim.RunMany resolves it once per distinct
// budget of a batch and hands it to RunTo.
func StopIndex(snap trace.Snapshot, start int, max uint64) int {
	_, _, _, meta := snap.Columns()
	if max == 0 {
		return len(meta)
	}
	var seen uint64
	for i := start; i < len(meta); i++ {
		m := meta[i]
		if m&trace.MetaTrap == 0 && trace.Class(m>>trace.MetaClassShift) == trace.Cond {
			if seen++; seen == max {
				return i + 1
			}
		}
	}
	return len(meta)
}

// Run replays snap from event index start, honouring the kernel's
// budget, context-switch and cancellation configuration, and returns the
// counters plus the number of events consumed. On cancellation the
// partial counters and consumed count collected so far are returned with
// ctx's error; the predictor's state then describes exactly the consumed
// prefix.
func (k *Kernel) Run(snap trace.Snapshot, start int) (Counters, int, error) {
	return k.RunTo(snap, start, StopIndex(snap, start, k.cfg.MaxCondBranches))
}

// RunTo is Run with the stop index already resolved: end must be
// StopIndex(snap, start, cfg.MaxCondBranches) for the result to honour
// the kernel's budget.
func (k *Kernel) RunTo(snap trace.Snapshot, start, end int) (Counters, int, error) {
	instrs, pcs, targets, meta := snap.Columns()
	if k.st == nil {
		consumed, err := k.runStatic(instrs, pcs, targets, meta, start, end)
		return k.c, consumed, err
	}
	st := k.st
	var consumed int
	var err error
	switch {
	case k.kind == kindBTB:
		consumed, err = k.runGeneric(instrs, pcs, targets, meta, start, end)
	case k.shardable() && k.shardCount() > 1:
		consumed, err = k.runSharded(instrs, pcs, targets, meta, start, end)
	case st.HistoryAxis == flat.Global && st.PatternAxis == flat.Global:
		consumed, err = k.runGAg(instrs, pcs, meta, start, end)
	case st.BHT == flat.CacheBHT && st.HistoryAxis == flat.PerAddress && st.PatternAxis == flat.Global:
		consumed, err = k.runPAgCache(instrs, pcs, targets, meta, start, end)
	case st.BHT == flat.CacheBHT && st.HistoryAxis == flat.PerAddress && st.PatternAxis == flat.PerAddress:
		consumed, err = k.runPApCache(instrs, pcs, targets, meta, start, end)
	default:
		consumed, err = k.runGeneric(instrs, pcs, targets, meta, start, end)
	}
	return k.c, consumed, err
}
