// Package telemetry is the observability layer of the simulator: the
// folds behind the dynamics the end-of-run accuracy numbers hide — which
// static branches dominate mispredictions (the per-site fold, HotRows),
// how accuracy evolves through warm-up and context-switch recovery
// (Sample), why a branch mispredicts (Forensics) and what a run cost
// (RunMetrics) — plus the metrics registry and the Observer hook.
//
// The replay's fastpath.Tap produces the series and profiles from the
// mispredict bits of either replay engine. The Observer hook stays for
// custom per-branch callbacks (sim.Options.Observer). A nil observer adds
// no allocations and no measurable work to the hot loop: the simulator
// guards every callback behind a nil check, and the guarantee is enforced
// by an allocation test in package sim and the BenchmarkSimObserverOverhead
// pair at the repository root.
package telemetry

import (
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// RunInfo describes the simulation run an observer is attached to.
type RunInfo struct {
	// Predictor is the predictor under measurement. Observers that
	// report table occupancy keep it and query it — via the optional
	// predictor.Inspector interface — at Finish time.
	Predictor predictor.Predictor
}

// Observer receives the simulator's lifecycle callbacks. Implementations
// need not be safe for concurrent use: the simulator delivers callbacks
// from a single goroutine, and each run gets its own observers.
type Observer interface {
	// Start begins a run. It is called once, before the first event.
	Start(info RunInfo)
	// OnPredict is called after each conditional branch prediction,
	// before the outcome is known — b.Taken is cleared, exactly as the
	// predictor saw it. Squashed-and-repredicted branches in the
	// pipelined model are reported again.
	OnPredict(b trace.Branch, predicted bool)
	// OnResolve is called when a conditional branch resolves and the
	// predictor has been updated; b.Taken carries the real outcome.
	OnResolve(b trace.Branch, predicted, correct bool)
	// OnContextSwitch is called when per-branch predictor state is
	// flushed for a process switch (or, for sim.Multiplex, when the
	// quantum expires and another process is scheduled).
	OnContextSwitch()
	// OnTrap is called for every trap event in the trace.
	OnTrap()
	// Finish ends the run. It is called once, after the last event,
	// on both normal and error returns.
	Finish()
}
