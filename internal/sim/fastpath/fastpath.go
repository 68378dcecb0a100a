// Package fastpath is the branchless fast-replay kernel: a specialized
// replay engine that drives flat-table predict+update loops over a packed
// trace snapshot's conditional branches, decoded once per batch into
// columns, bypassing the per-event trace.Source / predictor.Predictor
// interface calls of the interpretive runner in package sim.
//
// The kernel runs only when a replay cell qualifies (see Supported and
// sim's dispatch): depth-0 base model, no Observer, a *trace.SnapshotReader
// source, and a predictor whose state flattens — every scheme of the
// paper's comparison: the static AlwaysTaken, BTFN and Profiling schemes,
// the Branch Target Buffer designs (either miss policy), and a
// *predictor.TwoLevel of any taxonomy variation (GAg/PAg/PAp plus the
// GAp/GAs/PAs/SAg/SAs/SAp extensions, practical or ideal BHT, custom
// machines, Static Training presets, speculative history, which at depth
// 0 is the base model). Everything else falls back to the interpretive
// runner.
//
// Plans: everything a replay computes that does not depend on the
// predictor is computed once per batch, in a Plan (plan.go): the
// conditional branches' PCs, targets and outcomes as columns indexed by
// resolution index, and per distinct budget and context-switch
// configuration the instruction, trap, class and taken counts and the
// branch index of every context switch. sim.RunMany builds one plan for
// all its kernel cells; Run, RunTo and sim.Run build a plan of one cell.
//
// Mechanics: a two-level predictor already keeps its tables in the flat
// layout of package flat — δ/λ as a packed [state<<1|outcome] transition
// array and a λ bitmask, history registers as raw uint32 values with a
// spare freshness bit (§4.2), the branch history table as parallel
// arrays, pattern tables as state slices — so the kernel replays on the
// predictor's own flat.State in place, with nothing to copy in or out. A
// BTB is a flat.State too (the practical table with a per-slot automaton
// state), and a Profile is a flat.PCIndex over a dense direction array;
// runGeneric and runStatic serve them on the same objects. Per branch a
// hot loop does only its predictor step, stores one bit in the cell's
// mispredict bitset and keeps its target counters — no event decode, no
// interface calls, no telemetry work. Correct is the bitset's zeros;
// telemetry (tap.go) is folded from the bitset after the replay. Four
// loop bodies (loops.go) serve every scheme, with or without telemetry:
// runStatic, runGAg, runCache for PAg/PAp on the practical BHT, and
// runGeneric for the rest. A replay runs them in lanes (shard.go): a
// serial replay is one lane over every branch, a sharded one several
// lanes of runGeneric over disjoint PC partitions.
//
// Fidelity: a kernel run is bit-identical to the interpretive runner —
// the same Result counters and the same final predictor state, LRU
// ranks included: both paths call the same flat step functions, and the
// kernel's one fused lookup per branch leaves the LRU order as the
// interpretive Predict-then-Update pair of touches does. A sharded run
// gives each set to one lane, so it ends in the serial run's state
// too. The equivalence suite in package sim deep-equals both paths'
// Results and predictors across the full spec grid.
package fastpath

import (
	"context"
	"errors"
	"sync"

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
	// Interval, when > 0, folds an accuracy sample every Interval
	// resolved conditional branches — the kernel-native equivalent of
	// the telemetry.IntervalSeries observer, bit-identical by the
	// equivalence suite.
	Interval uint64
	// TopPCs, when > 0, folds a per-PC mispredict profile and reports
	// the TopPCs worst branches (telemetry.HotBranches order).
	TopPCs int
	// Warmup is the resolved-branch index bounding the warmup-miss
	// split of the per-PC profile (0 = attribute every miss to steady
	// state, matching Forensics with an unknown budget).
	Warmup uint64
	// Log, when set, keeps the resolved branches' site ids, outcomes
	// and mispredict bits for Tap.Forensics even when nothing else is
	// folded.
	Log bool
}

// logged reports whether a replay under c keeps the log of resolved
// branches, site ids included: for a profile or for Tap.Forensics.
func (c Config) logged() bool { return c.TopPCs > 0 || c.Log }

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
		return tp != nil
	default:
		return false
	}
}

// kernelKind selects the predictor step.
type kernelKind uint8

const (
	kindAlwaysTaken kernelKind = iota
	kindBTFN
	kindProfile
	kindTwoLevel
	kindBTB
)

// loopShape selects the hot loop of a serial replay; every lane of a
// sharded one runs loopGeneric.
type loopShape uint8

const (
	loopStatic loopShape = iota
	loopGAg
	loopCache
	loopGeneric
)

// Kernel is one flattened replay cell. Build one with New and drive it
// with Run, RunTo or Replay; the predictor's state is updated in place
// as it goes, and the counters accumulate across calls.
type Kernel struct {
	kind kernelKind
	loop loopShape
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
		k.loop = shapeOf(k.st)
	case *predictor.BTB:
		k.kind, k.st, k.loop = kindBTB, tp.State(), loopGeneric
	}
	return k, true
}

// shapeOf picks the serial loop for a two-level predictor's state:
// specialized loops for the paper's three implementations (GAg, and
// PAg/PAp on the practical BHT), the generic one for the rest.
func shapeOf(st *flat.State) loopShape {
	switch {
	case st.HistoryAxis == flat.Global && st.PatternAxis == flat.Global:
		return loopGAg
	case st.BHT == flat.CacheBHT && st.HistoryAxis == flat.PerAddress && st.PatternAxis != flat.PerSet:
		return loopCache
	}
	return loopGeneric
}

// errUnplanned reports a Replay over a plan built without the kernel.
var errUnplanned = errors.New("fastpath: kernel replayed over a plan that has no view for it")

// Run replays snap from event index start, honouring the kernel's
// budget, context-switch and cancellation configuration, and returns the
// counters plus the number of events consumed. It builds a plan of one
// cell. On cancellation the partial counters and consumed count
// collected so far are returned with ctx's error; the predictor's state
// then describes exactly the consumed prefix.
func (k *Kernel) Run(snap trace.Snapshot, start int) (Counters, int, error) {
	return k.runOne(snap, start, k.viewKey(snap.Len(), k.cfg.MaxCondBranches))
}

// RunTo is Run over events [start, end) without the branch budget: the
// caller has resolved where the replay stops.
func (k *Kernel) RunTo(snap trace.Snapshot, start, end int) (Counters, int, error) {
	return k.runOne(snap, start, k.viewKey(end, 0))
}

// runOne replays the view key over a plan of this kernel alone. The
// plan's storage is recycled at once unless the kernel's Tap borrowed it.
func (k *Kernel) runOne(snap trace.Snapshot, start int, key viewKey) (Counters, int, error) {
	p := newPlan(snap, start, []viewKey{key}, k.cfg.logged())
	c, n, err := k.replay(p, p.view(key))
	if k.tap == nil {
		p.Release()
	}
	return c, n, err
}

// Replay is Run over a plan NewPlan built with this kernel among its
// kernels, from the plan's start.
func (k *Kernel) Replay(p *Plan) (Counters, int, error) {
	v := p.view(k.viewKey(p.snap.Len(), k.cfg.MaxCondBranches))
	if v == nil {
		return k.c, 0, errUnplanned
	}
	return k.replay(p, v)
}

// replay runs the kernel over view v of p. The loops resolve branches
// and record each misprediction in a bitset; everything else comes from
// the view, or, when cancellation stopped the loops short, from a tally
// of the consumed prefix.
func (k *Kernel) replay(p *Plan, v *view) (Counters, int, error) {
	bits := getBitset(v.conds)
	miss := *bits
	n, err := k.runLanes(p, v, miss)
	done := *v
	if n < v.conds {
		done = p.prefix(v, n)
	}
	done.c.Correct = uint64(n) - uint64(flat.Ones(miss))
	k.c.merge(done.c)
	k.sinceCS = done.sinceCS
	if k.tap != nil {
		k.tap.bind(p, miss, n, done.switches)
	} else {
		bitsetPool.Put(bits)
	}
	return k.c, done.end - p.start, err
}

// bitsetPool recycles the mispredict bitsets of kernel cells without a
// Tap, which nothing reads once Correct is counted, as columnPool
// recycles a plan's columns.
var bitsetPool sync.Pool

// getBitset returns a zeroed bitset of one bit per branch for n
// branches: the loops reload partly filled words, so a reused one must
// start clear.
func getBitset(n int) *[]uint64 {
	words := (n + 63) / 64
	bits, _ := bitsetPool.Get().(*[]uint64)
	if bits == nil || cap(*bits) < words {
		s := make([]uint64, words)
		return &s
	}
	*bits = (*bits)[:words]
	clear(*bits)
	return bits
}
