// Fixture for the hotalloc analyzer in the flat state package: the step
// functions the kernel calls per event (Lookup*, alloc*/Allocate, Flush*)
// must not heap-allocate inside their loops.
package flat

// State is a stand-in for the flat predictor state.
type State struct {
	Valid  []bool
	PCs    []uint32
	Tables [][]uint8
}

// LookupCache allocates per way scanned: a finding.
func (s *State) LookupCache(pc uint32) int {
	for j := range s.PCs {
		s.Tables = append(s.Tables, nil) // want "append"
		if s.PCs[j] == pc {
			return j
		}
	}
	return -1
}

// allocSlot materialises a table once, outside any loop: clean.
func (s *State) allocSlot(j int) {
	for i := range s.Valid {
		s.Valid[i] = i == j
	}
	if s.Tables[j] == nil {
		s.Tables[j] = make([]uint8, 64)
	}
}

// grow is not hot: the same construct in a cold loop is clean.
func (s *State) grow(n int) {
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, nil)
	}
}
