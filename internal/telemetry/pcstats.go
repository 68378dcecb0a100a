package telemetry

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
