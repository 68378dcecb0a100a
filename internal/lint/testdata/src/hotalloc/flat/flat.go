// Fixture for the hotalloc analyzer in the flat state package: the step
// functions the kernel calls per event (Lookup*, alloc*/Allocate, Flush*)
// must not dispatch through interfaces, whatever the case of their first
// letter, nor heap-allocate inside their loops.
package flat

// Store stands in for a keyed BHT interface.
type Store interface {
	Lookup(pc uint32) int
}

// State is a stand-in for the flat predictor state.
type State struct {
	Valid  []bool
	PCs    []uint32
	Tables [][]uint8
	store  Store
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

// LookupStore is an exported hot step: interface dispatch is a finding.
func (s *State) LookupStore(pc uint32) int {
	return s.store.Lookup(pc) // want "interface method call Store.Lookup"
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

// allocStored is a hot helper: interface dispatch is a finding.
func (s *State) allocStored(pc uint32) int {
	return s.store.Lookup(pc) + 1 // want "interface method call Store.Lookup"
}

// Flush walks flat arrays only: not a finding.
func (s *State) Flush() {
	for i := range s.Valid {
		s.Valid[i] = false
	}
}

// grow is not hot: the same construct in a cold loop is clean.
func (s *State) grow(n int) {
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, nil)
	}
}

// New is cold setup: interface dispatch is not a finding.
func New(st Store) *State {
	st.Lookup(0)
	return &State{store: st}
}
