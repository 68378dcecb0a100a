package telemetry

// The rows of the telemetry reports: the per-PC profile, the hot-branch
// table, the interval series and a run's cost summary.

import "twolevel/internal/predictor"

// PCStats is one row of the kernel-native per-branch mispredict profile:
// the counters a streaming forensics verdict needs, cheap enough to
// accumulate inside the flat replay kernel (no pattern histograms, no
// shadow automata — see Forensics for the full-evidence profile).
type PCStats struct {
	// PC is the branch address.
	PC uint32 `json:"pc"`
	// Executions counts resolved dynamic instances of this branch.
	Executions uint64 `json:"executions"`
	// Taken counts taken instances.
	Taken uint64 `json:"taken"`
	// Mispredicts counts wrong predictions for this branch.
	Mispredicts uint64 `json:"mispredicts"`
	// WarmupMisses counts mispredicts in the run's warmup prefix
	// (WarmupBoundary of the branch budget, the split Forensics uses;
	// 0 when the budget is unknown).
	WarmupMisses uint64 `json:"warmup_misses"`
	// TakenRate is Taken / Executions.
	TakenRate float64 `json:"taken_rate"`
	// MissShare is this branch's share of all mispredictions in the run.
	MissShare float64 `json:"miss_share"`
}

// HotBranch is one row of a hot-branch report: a static conditional branch
// and its contribution to the run's mispredictions. Rows order by
// mispredictions descending, then PC ascending (SiteFold.Top).
type HotBranch struct {
	// PC is the branch address.
	PC uint32 `json:"pc"`
	// Mispredicts counts wrong predictions for this branch.
	Mispredicts uint64 `json:"mispredicts"`
	// Executions counts resolved dynamic instances of this branch.
	Executions uint64 `json:"executions"`
	// TakenRate is the fraction of executions that were taken.
	TakenRate float64 `json:"taken_rate"`
	// MissShare is this branch's share of all mispredictions in the run.
	MissShare float64 `json:"miss_share"`
}

// HotRows renders profile rows as hot-branch report rows (nil for none).
func HotRows(stats []PCStats) []HotBranch {
	var hot []HotBranch
	for _, p := range stats {
		hot = append(hot, HotBranch{PC: p.PC, Mispredicts: p.Mispredicts,
			Executions: p.Executions, TakenRate: p.TakenRate, MissShare: p.MissShare})
	}
	return hot
}

// Sample is one point of an interval accuracy series.
type Sample struct {
	// Branches is the cumulative resolved conditional branch count at
	// the end of the interval.
	Branches uint64 `json:"branches"`
	// Predictions is the number of branches in this interval — equal to
	// the configured interval except for a final partial sample when the
	// run's budget is not divisible by the interval.
	Predictions uint64 `json:"predictions"`
	// Correct counts correct predictions within the interval.
	Correct uint64 `json:"correct"`
	// Accuracy is Correct / Predictions.
	Accuracy float64 `json:"accuracy"`
}

// RunMetrics is the wall-clock, throughput, allocation and
// table-occupancy summary of one simulation run, derived from its result
// and two cost stamps (experiments.RunStats). It is the per-run unit of
// the metrics.json schema.
type RunMetrics struct {
	// WallClockSeconds is the duration of the run.
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	// Events is the total of the simulator events below: predictions,
	// resolutions, traps and context switches.
	Events uint64 `json:"events"`
	// EventsPerSec is Events over WallClockSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// Predictions counts predictions (squashed re-predictions in the
	// pipelined model included).
	Predictions uint64 `json:"predictions"`
	// Resolutions counts resolved conditional branches.
	Resolutions uint64 `json:"resolutions"`
	// Mispredictions counts incorrect resolutions.
	Mispredictions uint64 `json:"mispredictions"`
	// Traps counts trap events.
	Traps uint64 `json:"traps"`
	// ContextSwitches counts predictor flushes.
	ContextSwitches uint64 `json:"context_switches"`
	// AllocBytes and Mallocs are runtime.MemStats deltas
	// (TotalAlloc, Mallocs) across the run. They are process-wide:
	// concurrent runs in the same process contaminate each other's
	// deltas, so treat them as an upper bound under parallelism.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// Occupancy is the predictor's table occupancy after the run, when the
	// predictor implements predictor.Inspector; nil otherwise.
	Occupancy *predictor.Occupancy `json:"occupancy,omitempty"`
}
