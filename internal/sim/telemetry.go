// Run telemetry: the Options.Telemetry sink requests the interval
// accuracy series, the per-PC mispredict profile and a mispredict
// forensics report without costing fastpath eligibility. Both replay
// engines produce them through one fastpath.Tap — the kernel folds them
// from its replay plan and mispredict bits after the run, the
// interpretive runner feeds Tap.Resolve and Tap.Switch — so the two
// paths share one implementation.
package sim

import (
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/telemetry"
)

// Telemetry requests run telemetry. Unlike Options.Observer it does not
// forfeit fastpath eligibility: the flat kernel folds the samples from
// the mispredict bits its loops store, and the interpretive runner feeds
// the same fastpath.Tap when the kernel declines the run. Outputs are populated
// when Run (or RunMany, per cell) returns — including on cancellation,
// where they describe the consumed prefix. A Telemetry value is
// single-use; attach a fresh one per run.
type Telemetry struct {
	// Interval, when > 0, samples prediction accuracy every Interval
	// resolved conditional branches; a budget not divisible by it ends
	// the series in a partial sample.
	Interval uint64
	// TopK, when > 0, profiles per-PC mispredicts and reports the TopK
	// worst branches (telemetry.SiteFold.Top order) with the warmup-miss
	// split the streaming verdict classifier consumes.
	TopK int
	// Forensics, when non-nil, is handed the replay's log of resolved
	// conditional branches when the run returns.
	Forensics *telemetry.Forensics

	// Samples is the interval accuracy series (nil when Interval == 0).
	Samples []telemetry.Sample
	// Switches is the resolved-branch index at each context switch
	// (nil when Interval == 0).
	Switches []uint64
	// TopMispredicted is the per-PC profile (nil when TopK == 0).
	TopMispredicted []telemetry.PCStats
	// StaticBranches is the number of distinct branch sites the run
	// resolved (0 when TopK == 0).
	StaticBranches int
}

// fill materialises tap's outputs into the sink and feeds its Forensics
// (a nil sink or tap is a no-op). A kernel's plan must still be live.
func (t *Telemetry) fill(tap *fastpath.Tap) {
	if t != nil && tap != nil {
		t.Samples, t.Switches, t.TopMispredicted, t.StaticBranches = tap.Telemetry()
		if t.Forensics != nil {
			tap.Forensics(t.Forensics)
		}
	}
}

// HotBranches renders TopMispredicted as hot-branch report rows (nil
// when the profile is empty).
func (t *Telemetry) HotBranches() []telemetry.HotBranch { return telemetry.HotRows(t.TopMispredicted) }
