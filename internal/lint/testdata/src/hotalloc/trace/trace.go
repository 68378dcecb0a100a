// Fixture for the hotalloc analyzer in the trace package: the snapshot
// walks the replay plan runs per event (Decode*, decode*) must not
// heap-allocate inside their loops.
package trace

// Snapshot is a stand-in for a packed capture.
type Snapshot struct {
	meta []uint8
	seen []int
}

// DecodeTally allocates per event: a finding.
func (s *Snapshot) DecodeTally() {
	for i := range s.meta {
		s.seen = append(s.seen, i) // want "append"
	}
}

// decodeBranches writes into caller-sized columns: clean.
func decodeBranches(meta []uint8, outs []uint8) int {
	j := 0
	for _, m := range meta {
		if j == len(outs) {
			break
		}
		outs[j] = m & 2 >> 1
		j++
	}
	return j
}

// View is not hot: the same construct in a cold loop is clean.
func (s *Snapshot) View(n int) {
	for i := 0; i < n; i++ {
		s.seen = append(s.seen, i)
	}
}
