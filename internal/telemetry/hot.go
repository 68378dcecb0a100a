package telemetry

import "twolevel/internal/trace"

// HotBranch is one row of a hot-branch report: a static conditional branch
// and its contribution to the run's mispredictions.
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

// HotBranches is an Observer accumulating a per-PC misprediction table —
// the "which few static branches dominate the misses" view that makes
// predictor studies actionable (a handful of hard-to-predict branches
// typically carry most of the MPKI). It logs each resolution and ranks
// with the per-site fold of the replay Tap's profile.
type HotBranches struct {
	NopObserver
	k int
	siteRecorder
}

// NewHotBranches returns an observer that reports the top k static
// branches by misprediction count. k must be positive.
func NewHotBranches(k int) *HotBranches {
	return &HotBranches{k: max(k, 1)}
}

// OnResolve implements Observer.
func (h *HotBranches) OnResolve(b trace.Branch, predicted, correct bool) {
	h.record(b.PC, b.Taken, correct)
}

// TotalMispredicts returns the run's total misprediction count.
func (h *HotBranches) TotalMispredicts() uint64 { return h.misses() }

// StaticBranches returns the number of distinct conditional branch sites
// observed.
func (h *HotBranches) StaticBranches() int { return len(h.log.Sites) }

// Report returns the top-K branches ordered by mispredictions descending;
// equal-mispredict rows order by ascending PC, a total order over
// distinct PCs, so two identical workloads always render byte-identical
// reports.
func (h *HotBranches) Report() []HotBranch {
	fold := FoldSites(h.log, 0)
	return HotRows(fold.Profile(fold.Top(h.k), FoldCounts(h.log)))
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
