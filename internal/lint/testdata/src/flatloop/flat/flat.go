// Dispatch-only fixture for the hotalloc analyzer in the flat state package: the step
// functions the kernel calls per event (Lookup*, alloc*/Allocate, Flush*)
// must not dispatch through interfaces, whatever the case of their first
// letter.
package flat

// Store stands in for a keyed BHT interface.
type Store interface {
	Lookup(pc uint32) int
}

// State is a stand-in for the flat predictor state.
type State struct {
	Valid []bool
	PCs   []uint32
	store Store
}

// LookupCache is an exported hot step: interface dispatch is a finding.
func (s *State) LookupCache(pc uint32) int {
	return s.store.Lookup(pc) // want "interface method call Store.Lookup"
}

// allocSlot is a hot helper: interface dispatch is a finding.
func (s *State) allocSlot(pc uint32) int {
	return s.store.Lookup(pc) + 1 // want "interface method call Store.Lookup"
}

// Flush walks flat arrays only: not a finding.
func (s *State) Flush() {
	for i := range s.Valid {
		s.Valid[i] = false
	}
}

// New is cold setup: interface dispatch is not a finding.
func New(st Store) *State {
	st.Lookup(0)
	return &State{store: st}
}
