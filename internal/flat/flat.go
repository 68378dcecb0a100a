// Package flat is the one state layout of a Two-Level Adaptive predictor:
// histories, branch history table and pattern tables held as plain
// arrays. predictor.TwoLevel owns a State and drives it one call per
// Predict or Update; the flat replay kernel (internal/sim/fastpath) runs
// its hot loops over the same State in place. Both call the step
// functions here (LookupCache, LookupIdeal, Find, Allocate, Shift,
// Flush), so a kernel run leaves the predictor exactly as the
// interpretive runner would.
//
// The layout:
//
//   - a history register is a uint32 holding the k-bit pattern; FreshBit
//     marks a register that still awaits its first outcome, which Shift
//     extends through the whole register (§4.2);
//   - the practical branch history table (§3.3) is parallel per-slot
//     arrays in set-major, way-minor order: validity, ever-allocated,
//     tag (the full PC), Ranks (true LRU as hardware keeps it: a set's
//     ranks permute 0..assoc−1, 0 the most recently used), Hists, Preds
//     (the cached next prediction, §3.1) and Targets (§3.2);
//   - the Ideal table uses the same payload arrays, one slot per branch
//     in first-seen order, with a PCIndex as its directory;
//   - a pattern table is a []automaton.State indexed by pattern plus a
//     touched bitset (occupancy telemetry). There is one global table,
//     one per set, or one per BHT slot, materialised on the slot's first
//     allocation;
//   - a Branch Target Buffer (J. Smith) is the practical table alone,
//     each slot holding its branch's automaton state in Autos instead of
//     a history register bound to a pattern table. predictor.BTB drives
//     it through LookupBTB and TrainBTB.
//
// The hot step functions (Lookup*, alloc*/Allocate, Flush) are held to
// the same no-interface-call, no-allocation-in-loops contract as the
// kernel's loops by the flatloop and hotalloc analyzers.
package flat

import (
	"math/bits"

	"twolevel/internal/automaton"
)

// Axis is one level's association granularity: global, per-address or
// per-set.
type Axis uint8

const (
	Global Axis = iota
	PerAddress
	PerSet
)

// BHTKind selects the branch history table, if any.
type BHTKind uint8

const (
	NoBHT BHTKind = iota
	CacheBHT
	IdealBHT
)

// MaxHistoryBits is the widest supported history register. 30 bits
// covers every configuration in the paper (the largest is 18) with room
// for sweeps.
const MaxHistoryBits = 30

// FreshBit flags a history register that still awaits its first real
// outcome. MaxHistoryBits is 30, so bit 31 is free.
const FreshBit = uint32(1) << 31

// MaxAssoc is the widest set a uint16 LRU rank can order.
const MaxAssoc = 1 << 16

// Config sizes a State.
type Config struct {
	HistoryAxis, PatternAxis Axis
	HistoryBits              int
	Machine                  *automaton.Machine
	// Init is the initial state of every pattern table entry.
	Init automaton.State
	// ColdHistoryZero allocates BHT histories as live all-zeros
	// instead of fresh all-ones.
	ColdHistoryZero bool
	// InheritPHTOnReplace keeps a per-slot pattern table when its slot
	// is taken from another resident branch.
	InheritPHTOnReplace bool
	BHT                 BHTKind
	Entries, Assoc      int // practical BHT shape
	HistorySets         int // per-set history registers
	PatternSets         int // per-set pattern tables
	// BTB makes the practical table a Branch Target Buffer: its entries
	// keep a per-branch automaton state, and there are no history
	// registers or pattern tables. MissBTFN selects the prediction on a
	// miss: backward-taken/forward-not-taken instead of taken.
	BTB, MissBTFN bool
}

// LookupCounts are a BHT's hit-rate counters. A State embeds the serial
// ones; each worker of a sharded kernel run counts into private ones.
type LookupCounts struct {
	Lookups, Misses uint64
}

// State is a two-level predictor's mutable state. Fields a variation
// does not use stay nil.
type State struct {
	HistoryAxis, PatternAxis Axis
	BHT                      BHTKind

	// The automaton, flattened: δ indexed [state<<1 | outcome], λ as a
	// bitmask over states.
	Delta    []automaton.State
	PredMask uint64
	HistMask uint32
	// ResetHist is a flushed register's history (fresh all-ones);
	// freshHist is a newly allocated BHT entry's.
	ResetHist, freshHist uint32
	initState            automaton.State   // pattern entries' initial state
	initTable            []automaton.State // a per-slot table at initState
	inherit              bool

	GHR         uint32
	SetHists    []uint32
	HistSetMask uint32

	GStates    []automaton.State
	GTouched   []uint64
	SetStates  [][]automaton.State
	SetTouched [][]uint64
	PatSetMask uint32
	PHTStates  [][]automaton.State // per BHT slot, nil until its first allocation
	PHTTouched [][]uint64

	// The branch history table.
	Assoc       int
	SetMask     uint32
	Valid, ever []bool
	pcs         []uint32
	Ranks       []uint16 // LRU rank within the set, 0 = most recent
	Hists       []uint32
	Preds       []bool
	Targets     []uint32
	dir         PCIndex // Ideal table: PC → slot

	Autos    []automaton.State // per-slot automaton state (BTB only)
	missBTFN bool

	LookupCounts
}

// New returns the initial state cfg describes: every history register
// fresh all-ones, every pattern entry at cfg.Init, the BHT empty.
func New(cfg Config) State {
	s := State{
		HistoryAxis: cfg.HistoryAxis,
		PatternAxis: cfg.PatternAxis,
		BHT:         cfg.BHT,
		initState:   cfg.Init,
		HistMask:    uint32(1)<<cfg.HistoryBits - 1,
		inherit:     cfg.InheritPHTOnReplace,
	}
	m := cfg.Machine
	s.Delta = make([]automaton.State, 2*m.States())
	for st := 0; st < m.States(); st++ {
		s.Delta[st<<1] = m.Next(automaton.State(st), false)
		s.Delta[st<<1|1] = m.Next(automaton.State(st), true)
		if m.Predict(automaton.State(st)) {
			s.PredMask |= 1 << st
		}
	}
	s.ResetHist = s.HistMask | FreshBit
	s.freshHist = s.ResetHist
	if cfg.ColdHistoryZero {
		s.freshHist = 0
	}
	s.GHR = s.ResetHist
	if cfg.HistoryAxis == PerSet {
		s.HistSetMask = uint32(cfg.HistorySets - 1)
		s.SetHists = make([]uint32, cfg.HistorySets)
		for i := range s.SetHists {
			s.SetHists[i] = s.ResetHist
		}
	}
	switch {
	case cfg.BTB:
		s.Autos = make([]automaton.State, cfg.Entries)
		s.missBTFN = cfg.MissBTFN
	case cfg.PatternAxis == Global:
		s.GStates, s.GTouched = s.newPHT()
	case cfg.PatternAxis == PerSet:
		s.PatSetMask = uint32(cfg.PatternSets - 1)
		s.SetStates = make([][]automaton.State, cfg.PatternSets)
		s.SetTouched = make([][]uint64, cfg.PatternSets)
		for i := range s.SetStates {
			s.SetStates[i], s.SetTouched[i] = s.newPHT()
		}
	}
	if cfg.BHT == CacheBHT {
		n := cfg.Entries
		s.Assoc = cfg.Assoc
		s.SetMask = uint32(n/cfg.Assoc - 1)
		s.Valid = make([]bool, n)
		s.ever = make([]bool, n)
		s.pcs = make([]uint32, n)
		s.Ranks = make([]uint16, n)
		for j := range s.Ranks {
			s.Ranks[j] = uint16(j % cfg.Assoc)
		}
		s.Hists = make([]uint32, n)
		s.Preds = make([]bool, n)
		s.Targets = make([]uint32, n)
		if cfg.PatternAxis == PerAddress {
			s.PHTStates = make([][]automaton.State, n)
			s.PHTTouched = make([][]uint64, n)
		}
	}
	if cfg.PatternAxis == PerAddress {
		s.initTable, _ = s.newPHT()
	}
	return s
}

// newPHT returns a pattern table at its initial state and its cleared
// touched bitset.
func (s *State) newPHT() ([]automaton.State, []uint64) {
	states := make([]automaton.State, s.HistMask+1)
	s.fill(states)
	return states, make([]uint64, (len(states)+63)/64)
}

// fill sets every entry of states to the initial state: one copy from
// the per-slot template when there is one (a recycled slot's reset is on
// the replay path), a loop otherwise.
func (s *State) fill(states []automaton.State) {
	if s.initTable != nil {
		copy(states, s.initTable)
		return
	}
	for i := range states {
		states[i] = s.initState
	}
}

// Taken is λ: the prediction of pattern state st.
func (s *State) Taken(st automaton.State) bool { return s.PredMask>>st&1 != 0 }

// Train applies δ for outcome o (0 or 1) to entry pat of a pattern table
// and marks the entry touched.
func (s *State) Train(states []automaton.State, touched []uint64, pat, o uint32) {
	states[pat] = s.Delta[uint32(states[pat])<<1|o]
	touched[pat>>6] |= 1 << (pat & 63)
}

// Shift records outcome o (0 or 1) as the newest bit of history h under
// mask. The first outcome after (re)initialisation is extended through
// the whole register (§4.2).
func Shift(h, o, mask uint32) uint32 {
	if h&FreshBit != 0 {
		return o * mask
	}
	return (h<<1 | o) & mask
}

// History returns the register consulted for pc: the global register,
// pc's per-set register, or the register of BHT slot.
func (s *State) History(pc uint32, slot int) *uint32 {
	switch s.HistoryAxis {
	case Global:
		return &s.GHR
	case PerSet:
		return &s.SetHists[pc>>2&s.HistSetMask]
	}
	return &s.Hists[slot]
}

// Tables returns the pattern table consulted for pc: the global table,
// pc's per-set table, or the table of BHT slot.
func (s *State) Tables(pc uint32, slot int) ([]automaton.State, []uint64) {
	switch s.PatternAxis {
	case Global:
		return s.GStates, s.GTouched
	case PerSet:
		i := pc >> 2 & s.PatSetMask
		return s.SetStates[i], s.SetTouched[i]
	}
	return s.PHTStates[slot], s.PHTTouched[slot]
}

// LookupCache is a counted lookup in the practical table: pc's resident
// slot, or a newly allocated one on a miss, made its set's most recently
// used way.
func (s *State) LookupCache(c *LookupCounts, pc uint32) int {
	c.Lookups++
	if j := s.way(pc); j >= 0 {
		s.touch(j)
		return j
	}
	c.Misses++
	return s.allocCache(pc)
}

// touch makes slot j its set's most recently used way. Each more recent
// way ages one rank, branchlessly, as which ones age is data-dependent.
func (s *State) touch(j int) {
	if r := s.Ranks[j]; r != 0 {
		base := j &^ (s.Assoc - 1)
		set := s.Ranks[base : base+s.Assoc]
		for i, x := range set {
			set[i] = x + uint16((uint32(x)-uint32(r))>>31)
		}
		s.Ranks[j] = 0
	}
}

// LookupIdeal is LookupCache for the Ideal table: no capacity, no
// replacement, and a flushed branch revives its own slot with its
// pattern table intact.
func (s *State) LookupIdeal(c *LookupCounts, pc uint32) int {
	c.Lookups++
	idx, added := s.dir.Add(pc)
	if !added && s.Valid[idx] {
		return int(idx)
	}
	c.Misses++
	return s.allocIdeal(int(idx), pc, added)
}

// LookupBTB is a Branch Target Buffer's predict step: a counted lookup
// of pc that allocates nothing. A hit makes the slot its set's most
// recently used way and predicts λ of its automaton state; a miss
// returns slot -1 and predicts by the miss policy, taken or
// backward-taken/forward-not-taken from the branch's target.
func (s *State) LookupBTB(c *LookupCounts, pc, target uint32) (slot int, taken bool) {
	c.Lookups++
	if j := s.way(pc); j >= 0 {
		s.touch(j)
		return j, s.PredMask>>s.Autos[j]&1 != 0
	}
	c.Misses++
	return -1, !s.missBTFN || target < pc
}

// TrainBTB is a Branch Target Buffer's update step for pc at slot j, or
// j = -1 when pc is not resident: a missing branch is allocated a slot
// with its automaton at the initial state. δ then applies outcome o (0
// or 1), and a taken branch's target is cached; a not-taken one leaves
// whatever target the slot held.
func (s *State) TrainBTB(j int, pc, o, target uint32) {
	if j < 0 {
		j = s.allocCache(pc)
	}
	s.Autos[j] = s.Delta[uint32(s.Autos[j])<<1|o]
	if o != 0 {
		s.Targets[j] = target
	}
}

// CachedTarget returns the target address cached in pc's resident entry
// (§3.2); ok is false on a miss or before the entry saw a taken outcome.
// It is a read: neither the LRU order nor any counter moves.
func (s *State) CachedTarget(pc uint32) (target uint32, ok bool) {
	j := s.Peek(pc)
	if j < 0 || s.Targets[j] == 0 {
		return 0, false
	}
	return s.Targets[j], true
}

// Find returns pc's resident slot, or -1, without counting a lookup. A
// practical-table hit makes the slot its set's most recently used way.
func (s *State) Find(pc uint32) int {
	j := s.Peek(pc)
	if j >= 0 && s.BHT == CacheBHT {
		s.touch(j)
	}
	return j
}

// Peek is Find without touching: a read that leaves replacement order
// alone.
func (s *State) Peek(pc uint32) int {
	if s.BHT == IdealBHT {
		if idx, ok := s.dir.Get(pc); ok && s.Valid[idx] {
			return int(idx)
		}
		return -1
	}
	return s.way(pc)
}

// way returns pc's resident slot in its practical-table set, or -1.
func (s *State) way(pc uint32) int {
	base := int(pc>>2&s.SetMask) * s.Assoc
	for j := base; j < base+s.Assoc; j++ {
		if s.Valid[j] && s.pcs[j] == pc {
			return j
		}
	}
	return -1
}

// Allocate gives pc, which must not be resident, a slot without
// counting a lookup.
func (s *State) Allocate(pc uint32) int {
	if s.BHT == IdealBHT {
		idx, added := s.dir.Add(pc)
		return s.allocIdeal(int(idx), pc, added)
	}
	return s.allocCache(pc)
}

// allocCache takes pc's set's first invalid way, else its least
// recently used one (§3.3), makes it the most recently used, and
// initialises it per §4.2: a fresh history and a taken cached
// prediction. A per-slot pattern table is materialised on the slot's
// first allocation and reinitialised when the slot is taken from another
// resident branch (unless inherited). A BTB slot's automaton restarts at
// the initial state on every allocation.
func (s *State) allocCache(pc uint32) int {
	base := int(pc>>2&s.SetMask) * s.Assoc
	victim := base
	for j := base; j < base+s.Assoc; j++ {
		if !s.Valid[j] {
			victim = j
			break
		}
		if int(s.Ranks[j]) == s.Assoc-1 {
			victim = j
		}
	}
	recycled := s.Valid[victim] && s.pcs[victim] != pc
	s.touch(victim)
	s.ever[victim] = true
	s.Valid[victim] = true
	s.pcs[victim] = pc
	s.Hists[victim] = s.freshHist
	s.Preds[victim] = true
	if s.Autos != nil {
		s.Autos[victim] = s.initState
	}
	if s.PatternAxis == PerAddress {
		switch {
		case s.PHTStates[victim] == nil:
			s.PHTStates[victim], s.PHTTouched[victim] = s.newPHT()
		case recycled && !s.inherit:
			s.fill(s.PHTStates[victim])
			clear(s.PHTTouched[victim])
		}
	}
	return victim
}

// allocIdeal (re)validates Ideal slot j for pc, appending the slot
// when the directory just added pc.
func (s *State) allocIdeal(j int, pc uint32, added bool) int {
	if added {
		s.pcs = append(s.pcs, pc)
		s.Valid = append(s.Valid, false)
		s.Hists = append(s.Hists, 0)
		s.Preds = append(s.Preds, false)
		s.Targets = append(s.Targets, 0)
		if s.PatternAxis == PerAddress {
			s.PHTStates = append(s.PHTStates, nil)
			s.PHTTouched = append(s.PHTTouched, nil)
		}
	}
	s.Valid[j] = true
	s.Hists[j] = s.freshHist
	s.Preds[j] = true
	if s.PatternAxis == PerAddress && s.PHTStates[j] == nil {
		s.PHTStates[j], s.PHTTouched[j] = s.newPHT()
	}
	return j
}

// Flush is a context switch's first-level flush (§5.1.4): every BHT
// entry is invalidated and every history register reinitialised.
// Pattern tables are kept.
func (s *State) Flush() {
	clear(s.Valid)
	s.GHR = s.ResetHist
	for i := range s.SetHists {
		s.SetHists[i] = s.ResetHist
	}
}

// BHTTouched returns the number of BHT slots ever allocated.
func (s *State) BHTTouched() int {
	if s.BHT == IdealBHT {
		return len(s.pcs)
	}
	n := 0
	for _, e := range s.ever {
		if e {
			n++
		}
	}
	return n
}

// Ones returns the number of set bits in a touched bitset.
func Ones(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}
