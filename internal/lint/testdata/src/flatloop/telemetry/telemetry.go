// Dispatch-only fixture for the hotalloc analyzer in the telemetry package: the
// per-site fold over a replay's log (Fold*, fold*) must not dispatch
// through interfaces.
package telemetry

// Observer stands in for the per-event telemetry callback interface.
type Observer interface {
	OnResolve(pc uint32, correct bool)
}

// SiteLog is a stand-in for a replay's resolved-branch log.
type SiteLog struct {
	IDs  []int32
	Miss []uint64
	obs  Observer
}

// FoldSites is an exported fold: interface dispatch per branch is a
// finding.
func FoldSites(l SiteLog) []uint64 {
	rows := make([]uint64, len(l.IDs))
	for j, id := range l.IDs {
		rows[id]++
		l.obs.OnResolve(uint32(id), l.Miss[j>>6]>>(j&63)&1 == 0) // want "interface method call Observer.OnResolve"
	}
	return rows
}

// foldCounts walks flat columns only: not a finding.
func foldCounts(ids []int32, exec []uint64) {
	for _, id := range ids {
		exec[id]++
	}
}

// Report is cold: interface dispatch is not a finding.
func (l *SiteLog) Report() {
	l.obs.OnResolve(0, true)
}
