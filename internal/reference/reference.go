// Package reference is a deliberately naive model of the Two-Level
// Adaptive predictors and of the schemes the paper compares them with
// (the Branch Target Buffer designs, Profiling and Static Training),
// written from the
// paper's text alone and imported only by tests, as an oracle that
// shares no code with the simulator. Its model of the mispredict
// forensics report (Forensics) shares only the report types.
//
// Everything is the plainest possible data structure: a pattern table is
// a byte slice, a history register is a shift register with a "not yet
// written" flag, a branch history table entry is {tag, shiftRegister}
// plus its slot's pattern table, and LRU order is an explicit
// most-recent-first list of ways. The Figure 2 automata are written out
// below as tables instead of being imported. The rules are those of
// §2.1, §3.3, §4.2 and §5.1.4:
//
//   - history registers start all ones, and the first resolved outcome
//     is extended through the whole register;
//   - pattern table entries start in the automaton's taken-side initial
//     state and are never flushed, not even by a context switch;
//   - a context switch invalidates every branch history table entry and
//     reinitialises every history register;
//   - a practical table replaces the least recently used way of a set,
//     taking an invalid way (lowest first) before any valid one;
//   - a per-address pattern table is reinitialised when its slot is
//     taken from a different, still-resident branch.
//
// The comparison schemes of §5.2 follow the same plain style; their rules
// are given with BTB and Profile below.
package reference

// automaton is one Figure 2 machine: λ as taken[state], δ as
// next[state][outcome].
type automaton struct {
	init  byte
	taken []bool
	next  [][2]byte
}

// automata are the Figure 2 machines, keyed by the paper's names.
var automata = map[string]automaton{
	// Last-Time: the state is the last outcome.
	"LT": {init: 1, taken: []bool{false, true}, next: [][2]byte{{0, 1}, {0, 1}}},
	// A1: the last two outcomes; not taken only after two not-takens.
	"A1": {init: 3, taken: []bool{false, true, true, true},
		next: [][2]byte{{0, 1}, {2, 3}, {0, 1}, {2, 3}}},
	// A2: the 2-bit saturating up-down counter.
	"A2": {init: 3, taken: []bool{false, false, true, true},
		next: [][2]byte{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
	// A3: A2 whose weak states jump to the strong state when confirmed.
	"A3": {init: 3, taken: []bool{false, false, true, true},
		next: [][2]byte{{0, 1}, {0, 3}, {0, 3}, {2, 3}}},
	// A4: A2 whose taken side recovers in one step.
	"A4": {init: 3, taken: []bool{false, false, true, true},
		next: [][2]byte{{0, 1}, {0, 3}, {1, 3}, {2, 3}}},
	// PB: Static Training's preset bit, which resolution never changes.
	"PB": {init: 1, taken: []bool{false, true}, next: [][2]byte{{0, 0}, {1, 1}}},
}

// Config describes one predictor. Scheme is the paper's three-letter
// name: its first letter (G, P or S) is the history level, its last (g,
// p or s) the pattern level.
type Config struct {
	Scheme    string
	K         int    // history register length
	Automaton string // "LT", "A1" … "A4", "PB"
	// Entries and Assoc size the per-address branch history table,
	// which P* schemes use for history and *p schemes for pattern table
	// binding. Entries 0 is the ideal table: one entry per branch.
	Entries, Assoc int
	HistSets       int // per-set history registers (S*)
	PatSets        int // per-set pattern tables (*s)
}

// shiftRegister is a k-bit branch history register.
type shiftRegister struct {
	bits  uint32
	fresh bool // no outcome shifted in since (re)initialisation
}

// entry is one branch history table entry.
type entry struct {
	valid bool
	tag   uint32
	shiftRegister
	pht []byte // this slot's pattern table (*p schemes)
}

// Predictor is the reference model.
type Predictor struct {
	cfg  Config
	atm  automaton
	mask uint32

	ghr     shiftRegister
	setRegs []shiftRegister
	gpht    []byte
	setPHTs [][]byte

	sets  [][]entry // practical table: sets of ways
	order [][]int   // per set, way numbers most recently used first
	ideal map[uint32]*entry
}

// New builds a reference predictor. It trusts cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg, atm: automata[cfg.Automaton], mask: 1<<cfg.K - 1}
	p.ghr = p.freshRegister()
	for i := 0; i < cfg.HistSets; i++ {
		p.setRegs = append(p.setRegs, p.freshRegister())
	}
	p.gpht = p.newPHT()
	for i := 0; i < cfg.PatSets; i++ {
		p.setPHTs = append(p.setPHTs, p.newPHT())
	}
	if cfg.Entries == 0 {
		p.ideal = map[uint32]*entry{}
	}
	for s := 0; s < cfg.Entries/max(cfg.Assoc, 1); s++ {
		ways := make([]entry, cfg.Assoc)
		var order []int
		for w := range ways {
			ways[w].pht = p.newPHT()
			order = append(order, w)
		}
		p.sets = append(p.sets, ways)
		p.order = append(p.order, order)
	}
	return p
}

func (p *Predictor) freshRegister() shiftRegister {
	return shiftRegister{bits: p.mask, fresh: true}
}

func (p *Predictor) newPHT() []byte {
	t := make([]byte, 1<<p.cfg.K)
	for i := range t {
		t[i] = p.atm.init
	}
	return t
}

// Step predicts the conditional branch at pc, then trains the predictor
// with its outcome, and returns the prediction.
func (p *Predictor) Step(pc uint32, taken bool) bool {
	var e *entry
	if p.cfg.Scheme[0] == 'P' || p.cfg.Scheme[2] == 'p' {
		e = p.lookup(pc)
	}
	reg := &p.ghr
	switch p.cfg.Scheme[0] {
	case 'S':
		reg = &p.setRegs[pc>>2%uint32(p.cfg.HistSets)]
	case 'P':
		reg = &e.shiftRegister
	}
	pht := p.gpht
	switch p.cfg.Scheme[2] {
	case 's':
		pht = p.setPHTs[pc>>2%uint32(p.cfg.PatSets)]
	case 'p':
		pht = e.pht
	}
	state := pht[reg.bits]
	pred := p.atm.taken[state]
	outcome := uint32(0)
	if taken {
		outcome = 1
	}
	pht[reg.bits] = p.atm.next[state][outcome]
	reg.shift(outcome, p.mask)
	return pred
}

// shift records outcome (0 or 1) as the register's newest bit.
func (r *shiftRegister) shift(outcome, mask uint32) {
	if r.fresh {
		r.bits = mask * outcome // extend the first outcome
		r.fresh = false
	} else {
		r.bits = (r.bits<<1 | outcome) & mask
	}
}

// lookup returns pc's entry, allocating it on a miss.
func (p *Predictor) lookup(pc uint32) *entry {
	if p.ideal != nil {
		e := p.ideal[pc]
		if e == nil {
			e = &entry{tag: pc, pht: p.newPHT()}
			p.ideal[pc] = e
		}
		if !e.valid {
			e.valid = true
			e.shiftRegister = p.freshRegister()
		}
		return e
	}
	set := int(pc >> 2 % uint32(len(p.sets)))
	ways := p.sets[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == pc {
			toFront(p.order[set], w)
			return &ways[w]
		}
	}
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = p.order[set][len(ways)-1]
	}
	e := &ways[victim]
	if e.valid && e.tag != pc {
		for i := range e.pht {
			e.pht[i] = p.atm.init
		}
	}
	e.valid, e.tag, e.shiftRegister = true, pc, p.freshRegister()
	toFront(p.order[set], victim)
	return e
}

// toFront moves way w to the front of a set's most-recent-first LRU
// order.
func toFront(order []int, w int) {
	i := 0
	for order[i] != w {
		i++
	}
	copy(order[1:i+1], order[:i])
	order[0] = w
}

// Way is one way of a practical table's set: its number within the set,
// and its validity and tag.
type Way struct {
	Way   int
	Valid bool
	Tag   uint32
}

// Order returns the ways of the practical table's given set, most
// recently used first.
func (p *Predictor) Order(set int) []Way {
	var ways []Way
	for _, w := range p.order[set] {
		e := p.sets[set][w]
		ways = append(ways, Way{Way: w, Valid: e.valid, Tag: e.tag})
	}
	return ways
}

// ContextSwitch flushes the first level (§5.1.4).
func (p *Predictor) ContextSwitch() {
	p.ghr = p.freshRegister()
	for i := range p.setRegs {
		p.setRegs[i] = p.freshRegister()
	}
	for _, ways := range p.sets {
		for w := range ways {
			ways[w].valid = false
		}
	}
	for _, e := range p.ideal {
		e.valid = false
	}
}

// BTB is the reference Branch Target Buffer (J. Smith; §5.2): a tagged,
// set-associative table whose entries hold one automaton state per
// branch. Its rules:
//
//   - a hit predicts from the entry's automaton; a miss predicts taken,
//     or backward-taken/forward-not-taken under the BTFN miss policy;
//   - a missing branch gets an entry only when it resolves: the first
//     invalid way of its set (lowest first), else the least recently
//     used one, with the automaton at its initial state;
//   - each branch, hit or miss, becomes its set's most recently used
//     entry;
//   - a context switch invalidates every entry.
type BTB struct {
	atm      automaton
	missBTFN bool
	sets     [][]btbEntry
	order    [][]int // per set, way numbers most recently used first
}

// btbEntry is one BTB entry.
type btbEntry struct {
	valid bool
	tag   uint32
	state byte
}

// NewBTB builds a reference BTB of entries slots, assoc ways per set,
// with the named Figure 2 automaton.
func NewBTB(entries, assoc int, automatonName string, missBTFN bool) *BTB {
	p := &BTB{atm: automata[automatonName], missBTFN: missBTFN}
	for s := 0; s < entries/assoc; s++ {
		var order []int
		for w := 0; w < assoc; w++ {
			order = append(order, w)
		}
		p.sets = append(p.sets, make([]btbEntry, assoc))
		p.order = append(p.order, order)
	}
	return p
}

// Step predicts the conditional branch at pc with the given target,
// then trains the buffer with its outcome, and returns the prediction.
func (p *BTB) Step(pc, target uint32, taken bool) bool {
	set := int(pc >> 2 % uint32(len(p.sets)))
	ways := p.sets[set]
	w := -1
	for i := range ways {
		if ways[i].valid && ways[i].tag == pc {
			w = i
		}
	}
	var pred bool
	if w >= 0 {
		pred = p.atm.taken[ways[w].state]
	} else {
		pred = !p.missBTFN || target < pc
		for i := range ways {
			if !ways[i].valid {
				w = i
				break
			}
		}
		if w < 0 {
			w = p.order[set][len(ways)-1]
		}
		ways[w] = btbEntry{valid: true, tag: pc, state: p.atm.init}
	}
	toFront(p.order[set], w)
	outcome := 0
	if taken {
		outcome = 1
	}
	ways[w].state = p.atm.next[ways[w].state][outcome]
	return pred
}

// ContextSwitch invalidates every entry.
func (p *BTB) ContextSwitch() {
	for _, ways := range p.sets {
		for w := range ways {
			ways[w].valid = false
		}
	}
}

// Profile is the reference Profiling scheme (§4.2): a training run
// counts each branch's outcomes, and the branch is then always predicted
// in its more frequent direction, taken on a tie and for a branch the
// training run never executed.
type Profile struct {
	taken, notTaken map[uint32]int
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{taken: map[uint32]int{}, notTaken: map[uint32]int{}}
}

// Train records one outcome of the training run.
func (p *Profile) Train(pc uint32, taken bool) {
	if taken {
		p.taken[pc]++
	} else {
		p.notTaken[pc]++
	}
}

// Predict returns the profiled direction of the branch at pc.
func (p *Profile) Predict(pc uint32) bool { return p.taken[pc] >= p.notTaken[pc] }

// Static is the reference Static Training scheme (Lee & A. Smith; §4.2).
// A training run feeds each conditional branch's outcome to the history
// pattern it follows, under one global register (GSg) or a register per
// branch (PSg), each starting all ones and extending its first outcome.
// Each pattern's more frequent outcome, taken on a tie and for a pattern
// the training run never reached, is then frozen into a table of preset
// bits, which the testing run reads through a GAg or PAg structure and
// never changes.
type Static struct {
	k               int
	perAddress      bool
	ghr             shiftRegister
	regs            map[uint32]*shiftRegister
	taken, notTaken []int
}

// NewStatic returns an untrained k-bit Static Training pass.
func NewStatic(k int, perAddress bool) *Static {
	mask := uint32(1)<<k - 1
	return &Static{
		k: k, perAddress: perAddress,
		ghr:   shiftRegister{bits: mask, fresh: true},
		regs:  map[uint32]*shiftRegister{},
		taken: make([]int, 1<<k), notTaken: make([]int, 1<<k),
	}
}

// Train records one outcome of the training run.
func (s *Static) Train(pc uint32, taken bool) {
	mask := uint32(1)<<s.k - 1
	reg := &s.ghr
	if s.perAddress {
		if s.regs[pc] == nil {
			s.regs[pc] = &shiftRegister{bits: mask, fresh: true}
		}
		reg = s.regs[pc]
	}
	outcome := uint32(0)
	if taken {
		outcome = 1
		s.taken[reg.bits]++
	} else {
		s.notTaken[reg.bits]++
	}
	reg.shift(outcome, mask)
}

// Predictor returns the testing-run predictor: GSg, or PSg with an
// entries×assoc branch history table (entries 0 is the ideal table).
func (s *Static) Predictor(entries, assoc int) *Predictor {
	scheme := "GAg"
	if s.perAddress {
		scheme = "PAg"
	}
	p := New(Config{Scheme: scheme, K: s.k, Automaton: "PB", Entries: entries, Assoc: assoc})
	for i := range p.gpht {
		p.gpht[i] = 0
		if s.taken[i] >= s.notTaken[i] {
			p.gpht[i] = 1
		}
	}
	return p
}
