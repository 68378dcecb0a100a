// Run telemetry: the Options.Telemetry sink requests the interval
// accuracy series and the per-PC mispredict profile without costing
// fastpath eligibility. Both replay engines produce them through one
// fastpath.Tap — the kernel folds them from its replay plan and
// mispredict bits after the run, the interpretive runner feeds
// Tap.Resolve and Tap.Switch — so the two paths share one implementation.
package sim

import (
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/telemetry"
)

// telemetryWarmupFrac matches ForensicsConfig's default warmup share of
// the branch budget for the per-PC warmup-miss split.
const telemetryWarmupFrac = 0.1

// Telemetry requests run telemetry. Unlike Options.Observer it does not
// forfeit fastpath eligibility: the flat kernel folds the samples from
// the mispredict bits its loops store, and the interpretive runner feeds
// the same fastpath.Tap when the kernel declines the run. Outputs are populated
// when Run (or RunMany, per cell) returns — including on cancellation,
// where they describe the consumed prefix. A Telemetry value is
// single-use; attach a fresh one per run.
type Telemetry struct {
	// Interval, when > 0, samples prediction accuracy every Interval
	// resolved conditional branches (telemetry.IntervalSeries
	// semantics, bit-identical by the equivalence suite).
	Interval uint64
	// TopK, when > 0, profiles per-PC mispredicts and reports the TopK
	// worst branches (telemetry.HotBranches order) with the warmup-miss
	// split the streaming verdict classifier consumes.
	TopK int

	// Samples is the interval accuracy series (nil when Interval == 0).
	Samples []telemetry.Sample
	// Switches is the resolved-branch index at each context switch
	// (nil when Interval == 0).
	Switches []uint64
	// TopMispredicted is the per-PC profile (nil when TopK == 0).
	TopMispredicted []telemetry.PCStats
}

// warmupBoundary is the resolved-branch index bounding the warmup-miss
// split, mirroring Forensics' default (0 when the budget is unknown).
func warmupBoundary(budget uint64) uint64 {
	return uint64(float64(budget) * telemetryWarmupFrac)
}

// fill materialises tap's outputs into the sink (a nil sink or tap is a
// no-op).
func (t *Telemetry) fill(tap *fastpath.Tap) {
	if t != nil && tap != nil {
		t.Samples, t.Switches, t.TopMispredicted = tap.Telemetry()
	}
}
