// Package sim drives branch predictors over trace event streams and
// collects prediction statistics — the "branch prediction simulator" of §4
// of the paper.
//
// The simulator predicts every conditional branch, verifies the prediction
// against the traced outcome, and updates the predictor. When context
// switches are enabled it flushes the predictor's per-branch state
// whenever a trap occurs in the trace, or every CSInterval instructions if
// no trap occurs (§5.1.4: 500,000 instructions ≈ a 10 ms quantum on a
// 50 MHz, 1-IPC machine).
package sim

import (
	"context"
	"io"

	"twolevel/internal/predictor"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/span"
	"twolevel/internal/stats"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// DefaultCSInterval is the paper's context-switch quantum in instructions.
const DefaultCSInterval = 500_000

// cancelCheckInterval is how many trace events pass between cancellation
// polls when a run carries a Context. Checks are amortised so the
// nil-context hot path pays one predictable branch per event and a
// cancelled run is noticed within a few thousand events (microseconds at
// replay speed), never mid-event.
const cancelCheckInterval = 4096

// Options configures a simulation run.
type Options struct {
	// ContextSwitches enables context-switch injection (the ",c" flag
	// of the naming convention).
	ContextSwitches bool
	// CSInterval overrides the instruction quantum (default 500,000).
	CSInterval uint64
	// MaxCondBranches stops the run after this many conditional
	// branches have been fetched (0 = drain the source). A pipelined run
	// fetches no further branch once the budget is reached and resolves
	// the ones in flight, so every run resolves exactly the branches a
	// source cut at the budget would give it.
	MaxCondBranches uint64
	// PipelineDepth, when > 0, models the §3.1 pipeline: a branch
	// resolves (updates the predictor) only after PipelineDepth further
	// conditional branches have been predicted. On a misprediction the
	// in-flight younger branches are squashed and re-predicted, as a
	// refetched pipeline would. Depth 0 resolves every branch before
	// the next prediction (the paper's base model).
	PipelineDepth int
	// Observer, when non-nil, receives telemetry callbacks for every
	// prediction, resolution, trap and context switch, bracketed by
	// Start/Finish. A nil observer adds no allocations and no
	// measurable work to the hot loop.
	Observer telemetry.Observer
	// Context, when non-nil, bounds the run: Run and RunMany poll it
	// every few thousand events and return ctx.Err() (with the partial
	// result collected so far) once it is cancelled or past its
	// deadline. A nil Context adds no measurable work to the hot loop.
	Context context.Context
	// Span, when non-nil, is the parent span the run attributes its
	// latency under: Run opens one "replay" child covering the whole
	// pass (RunMany opens one per shared pass, tagged with the batch
	// size). A nil Span adds no allocations and no work — the same
	// zero-cost-when-nil contract the Observer field carries, enforced
	// by the spannilguard analyzer and an allocation test.
	Span *span.Span
	// DisableFastpath forces the interpretive runner even when the flat
	// replay kernel (internal/sim/fastpath) could serve the run.
	// Equivalence tests and kernel-vs-runner benchmarks use it to pin
	// the path; results are bit-identical either way.
	DisableFastpath bool
	// Shards requests PC-partitioned parallel replay inside the fast
	// kernel for per-address/per-set schemes (values < 2, or schemes
	// with any global level, replay serially). The merged Result is
	// bit-identical to the serial kernel. Ignored on the interpretive
	// path.
	Shards int
	// Telemetry, when non-nil, requests the interval accuracy series,
	// the per-PC mispredict profile and a forensics report. Unlike
	// Observer it does not cost fastpath eligibility: the flat kernel
	// folds them from its mispredict bits after the run, and the
	// interpretive runner feeds the same fastpath.Tap when the kernel
	// declines the run. Outputs land in the sink when the run returns;
	// a sink is single-use.
	Telemetry *Telemetry
}

// Result aggregates a simulation run.
type Result struct {
	// Accuracy counts conditional branch predictions.
	Accuracy stats.Accuracy
	// ByClass counts dynamic branches per class.
	ByClass [trace.NumClasses]uint64
	// Instructions is the total instruction count replayed.
	Instructions uint64
	// Traps is the number of trap events seen.
	Traps uint64
	// ContextSwitches is the number of switches injected.
	ContextSwitches uint64
	// TakenCond counts taken conditional branches.
	TakenCond uint64
	// Repredictions counts squashed-and-repredicted branches in
	// pipelined mode (always 0 at depth 0).
	Repredictions uint64
	// TargetPredictions and TargetCorrect measure target-address
	// caching (§3.2) for predictors implementing
	// predictor.TargetPredictor: among conditional branches that were
	// predicted taken and were taken, how often the cached target
	// matched the actual target.
	TargetPredictions uint64
	TargetCorrect     uint64
}

// TargetRate returns the fraction of correctly supplied target addresses,
// or 0 when the predictor caches no targets.
func (r Result) TargetRate() float64 {
	if r.TargetPredictions == 0 {
		return 0
	}
	return float64(r.TargetCorrect) / float64(r.TargetPredictions)
}

// measureTarget folds one §3.2 target-cache measurement into res.
func measureTarget(res *Result, tp predictor.TargetPredictor, b trace.Branch, predictedTaken bool) {
	if tp == nil || !predictedTaken || !b.Taken {
		return
	}
	res.TargetPredictions++
	if t, ok := tp.PredictTarget(b.PC); ok && t == b.Target {
		res.TargetCorrect++
	}
}

// Run simulates p over src. A cancelled opts.Context aborts the run with
// ctx.Err() and the partial result collected so far.
func Run(p predictor.Predictor, src trace.Source, opts Options) (Result, error) {
	var k *fastpath.Kernel
	var sr *trace.SnapshotReader
	decline := FastpathDecline(p, src, opts)
	if decline == Served {
		sr, _ = src.(*trace.SnapshotReader)
		k, _ = fastpath.New(p, fastpathConfig(opts))
	}
	countDecline(decline)
	if obs := opts.Observer; obs != nil {
		obs.Start(telemetry.RunInfo{Predictor: p})
		defer obs.Finish()
	}
	if parent := opts.Span; parent != nil {
		sp := parent.Child("replay",
			span.Uint64("budget", opts.MaxCondBranches),
			span.Bool("fastpath", k != nil))
		if decline != Served {
			sp.SetAttr(span.Str("decline", decline.String()))
		}
		defer sp.End()
	}
	if k != nil {
		// A replay plan of one cell, released once the sink is filled.
		start := sr.Pos()
		plan := fastpath.NewPlan(sr.Snapshot(), start, k)
		c, consumed, err := k.Replay(plan)
		sr.Seek(start + consumed)
		opts.Telemetry.fill(k.Tap())
		plan.Release()
		return countersToResult(c), err
	}
	r := newRunner(p, opts)
	defer opts.Telemetry.fill(r.tap)
	ctx := opts.Context
	var sinceCheck uint32
	for r.ready() {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return r.res, err
				}
			}
		}
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return r.res, err
		}
		r.step(e)
	}
	r.finish()
	return r.res, nil
}

// inflight is one unresolved branch in the pipelined model.
type inflight struct {
	branch trace.Branch
	pred   bool
}

// runner is the per-predictor simulation state machine. Run drives one
// down a private source; RunMany drives many down a single shared pass.
// Both paths execute exactly this code, so a batched replay is
// bit-identical to the serial run by construction.
//
// Depth 0 is the paper's base model: every branch resolves before the
// next prediction. Depth > 0 is the §3.1 timing model: predictions are
// made with predictor state that has not yet seen the outcomes of the
// previous PipelineDepth branches; accuracy is charged at resolution time
// against the prediction in flight, and a misprediction squashes and
// re-predicts the younger in-flight branches (they would be refetched
// down the correct path).
type runner struct {
	p        predictor.Predictor
	obs      telemetry.Observer
	tap      *fastpath.Tap // Options.Telemetry's accumulator; nil when off
	tp       predictor.TargetPredictor
	max      uint64
	cs       bool
	interval uint64
	depth    int
	sinceCS  uint64
	// queue is a fixed-capacity ring buffer of the depth+1 possible
	// in-flight branches. Head advances on resolve instead of reslicing
	// (queue = queue[1:]) — the reslice walked the backing array off its
	// end, forcing a fresh allocation every depth+1 branches for the
	// whole run.
	queue []inflight
	qhead int
	qlen  int
	res   Result
	done  bool
}

// newRunner returns the runner by value so Run can keep it on the stack
// (the nil-observer hot path must not allocate).
func newRunner(p predictor.Predictor, opts Options) runner {
	r := runner{
		p:        p,
		obs:      opts.Observer,
		tap:      fastpath.NewTap(fastpathConfig(opts)),
		max:      opts.MaxCondBranches,
		cs:       opts.ContextSwitches,
		interval: opts.CSInterval,
		depth:    opts.PipelineDepth,
	}
	if r.interval == 0 {
		r.interval = DefaultCSInterval
	}
	if r.depth > 0 {
		r.queue = make([]inflight, r.depth+1)
	} else {
		// Target-address caching (§3.2) is measured in the base model
		// only, as before the pipelined mode existed.
		if tp, _ := p.(predictor.TargetPredictor); tp != nil && tp.CachesTargets() {
			r.tp = tp
		}
	}
	return r
}

// ready reports whether the runner still wants events. When the branch
// budget has been fetched — resolved plus in flight — it retires the
// in-flight queue and marks the runner done: the top-of-loop budget
// check of the serial simulator.
func (r *runner) ready() bool {
	if r.done {
		return false
	}
	if r.max > 0 && r.res.Accuracy.Predictions+uint64(r.qlen) >= r.max {
		r.drain()
		r.done = true
		return false
	}
	return true
}

// step consumes one trace event.
func (r *runner) step(e trace.Event) {
	r.res.Instructions += uint64(e.Instrs)
	r.sinceCS += uint64(e.Instrs)
	if e.Trap {
		r.res.Traps++
		if r.obs != nil {
			r.obs.OnTrap()
		}
		if r.cs {
			r.contextSwitch()
		}
		return
	}
	if r.cs && r.sinceCS >= r.interval {
		r.contextSwitch()
	}
	b := e.Branch
	r.res.ByClass[b.Class]++
	if b.Class != trace.Cond {
		return
	}
	if b.Taken {
		r.res.TakenCond++
	}
	if r.depth > 0 {
		slot := r.qhead + r.qlen
		if slot >= len(r.queue) {
			slot -= len(r.queue)
		}
		r.queue[slot] = inflight{branch: b, pred: r.predict(b)}
		r.qlen++
		if r.qlen > r.depth {
			r.resolve()
		}
		return
	}
	outcome := b.Taken
	pred := r.predict(b)
	r.res.Accuracy.Add(pred == outcome)
	measureTarget(&r.res, r.tp, b, pred)
	r.p.Update(b, pred)
	if r.obs != nil {
		r.obs.OnResolve(b, pred, pred == outcome)
	}
	if r.tap != nil {
		r.tap.Resolve(b.PC, outcome, pred == outcome)
	}
}

// contextSwitch drains the pipeline and flushes the predictor.
func (r *runner) contextSwitch() {
	if r.depth > 0 {
		r.drain()
	}
	r.p.ContextSwitch()
	r.res.ContextSwitches++
	r.sinceCS = 0
	if r.obs != nil {
		r.obs.OnContextSwitch()
	}
	if r.tap != nil {
		r.tap.Switch()
	}
}

// predict asks the predictor about b with the outcome masked.
func (r *runner) predict(b trace.Branch) bool {
	b.Taken = false // the predictor must not see the outcome
	pred := r.p.Predict(b)
	if r.obs != nil {
		r.obs.OnPredict(b, pred)
	}
	return pred
}

// resolve retires the oldest in-flight branch.
func (r *runner) resolve() {
	f := r.queue[r.qhead]
	if r.qhead++; r.qhead == len(r.queue) {
		r.qhead = 0
	}
	r.qlen--
	correct := f.pred == f.branch.Taken
	r.res.Accuracy.Add(correct)
	r.p.Update(f.branch, f.pred)
	if r.obs != nil {
		r.obs.OnResolve(f.branch, f.pred, correct)
	}
	if r.tap != nil {
		r.tap.Resolve(f.branch.PC, f.branch.Taken, correct)
	}
	if !correct {
		// Squash: younger in-flight branches are refetched and
		// re-predicted with the repaired predictor state.
		for j, i := 0, r.qhead; j < r.qlen; j++ {
			r.queue[i].pred = r.predict(r.queue[i].branch)
			r.res.Repredictions++
			if i++; i == len(r.queue) {
				i = 0
			}
		}
	}
}

// drain retires every in-flight branch.
func (r *runner) drain() {
	for r.qlen > 0 {
		r.resolve()
	}
}

// finish retires in-flight state at end of stream.
func (r *runner) finish() {
	if !r.done {
		r.drain()
		r.done = true
	}
}
