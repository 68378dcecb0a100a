// Fixture for the hotalloc analyzer in the trace package: the snapshot
// walks the replay plan runs per event (Decode*, decode*) must not
// dispatch through interfaces nor heap-allocate inside their loops.
package trace

// Source stands in for the trace event stream interface.
type Source interface {
	Next() (uint32, error)
}

// Snapshot is a stand-in for a packed capture.
type Snapshot struct {
	meta []uint8
	seen []int
	src  Source
}

// DecodeTally allocates per event: a finding.
func (s *Snapshot) DecodeTally() {
	for i := range s.meta {
		s.seen = append(s.seen, i) // want "append"
	}
}

// DecodeNext is an exported hot walk: interface dispatch is a finding.
func (s *Snapshot) DecodeNext() uint32 {
	v, _ := s.src.Next() // want "interface method call Source.Next"
	return v
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

// Reader is cold setup: interface dispatch is not a finding.
func (s *Snapshot) Reader() uint32 {
	v, _ := s.src.Next()
	return v
}
