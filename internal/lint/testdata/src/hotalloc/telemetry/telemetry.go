// Fixture for the hotalloc analyzer in the telemetry package: the
// per-site fold over a replay's log (Fold*, fold*) must not dispatch
// through interfaces nor heap-allocate inside its loops.
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

// shadow is a stand-in for one site's shadow model.
type shadow struct {
	patterns []uint32
}

// step is a same-package helper with an unjustified allocation: calls
// from a fold's loop are findings citing this site.
func (s *shadow) step(pattern uint32) {
	s.patterns = append(s.patterns, pattern)
}

// grow carries the annotation at its allocation site, which clears
// every hot caller at once.
func (s *shadow) grow(pattern uint32) {
	s.patterns = append(s.patterns, pattern) //lint:allow hotalloc amortised growth, fixture-sanctioned
}

// FoldCounts sizes its rows before the loop: clean.
func FoldCounts(ids []int32, sites int) []uint64 {
	exec := make([]uint64, sites)
	for _, id := range ids {
		exec[id]++
	}
	return exec
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

// foldShadows allocates per branch: findings.
func foldShadows(ids []int32, s *shadow) [][]int32 {
	var windows [][]int32
	for j, id := range ids {
		windows = append(windows, ids[:j]) // want "append"
		s.step(uint32(id))                 // want "call to step, which allocates"
		s.grow(uint32(id))
	}
	return windows
}

// Report is cold: interface dispatch is not a finding.
func (l *SiteLog) Report() {
	l.obs.OnResolve(0, true)
}
