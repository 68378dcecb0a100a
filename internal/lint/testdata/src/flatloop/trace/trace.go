// Dispatch-only fixture for the hotalloc analyzer in the trace package: the snapshot
// walks the replay plan runs per event (Decode*, decode*) must not
// dispatch through interfaces.
package trace

// Source stands in for the trace event stream interface.
type Source interface {
	Next() (uint32, error)
}

// Snapshot is a stand-in for a packed capture.
type Snapshot struct {
	meta []uint8
	src  Source
}

// DecodeTally is an exported hot walk: interface dispatch is a finding.
func (s *Snapshot) DecodeTally() uint32 {
	v, _ := s.src.Next() // want "interface method call Source.Next"
	return v
}

// decodeCoded walks flat columns only: not a finding.
func decodeCoded(meta []uint8, outs []uint8) int {
	j := 0
	for _, m := range meta {
		outs[j] = m
		j++
	}
	return j
}

// Reader is cold setup: interface dispatch is not a finding.
func (s *Snapshot) Reader() uint32 {
	v, _ := s.src.Next()
	return v
}
