package predictor

import (
	"fmt"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// Variation identifies one of the three alternative implementations of
// Two-Level Adaptive Branch Prediction (§2.2), plus the Static Training
// structures that share them.
type Variation uint8

const (
	// GAg: single global history register, single global pattern table.
	GAg Variation = iota
	// PAg: per-address branch history table, global pattern table.
	PAg
	// PAp: per-address branch history table, per-address pattern tables
	// (one bound to each branch history table entry slot).
	PAp
	// GAp: single global history register, per-address pattern tables.
	// Not one of the paper's three implementations — with the per-set
	// variations below it completes the {G,P,S} x {g,p,s} grid of Yeh &
	// Patt's later taxonomy and is provided as an extension.
	GAp
	// GAs: global history register, per-set pattern tables (tables
	// selected by untagged branch address bits). Extension.
	GAs
	// PAs: per-address history, per-set pattern tables. Extension.
	PAs
	// SAg: per-set history registers (an untagged register file indexed
	// by branch address bits — aliasing allowed, no tags), global
	// pattern table. Extension.
	SAg
	// SAs: per-set history registers, per-set pattern tables. Extension.
	SAs
	// SAp: per-set history registers, per-address pattern tables.
	// Extension.
	SAp
)

// Axis is one level's association granularity: global, per-address or
// per-set. It is the flat state layout's own axis, so the predictor and
// the flat replay kernel classify variations the same way.
type Axis = flat.Axis

const (
	AxisGlobal     = flat.Global
	AxisPerAddress = flat.PerAddress
	AxisPerSet     = flat.PerSet
)

// HistoryAxis returns the first level's association granularity.
func (v Variation) HistoryAxis() Axis {
	switch v {
	case GAg, GAp, GAs:
		return AxisGlobal
	case SAg, SAs, SAp:
		return AxisPerSet
	default:
		return AxisPerAddress
	}
}

// PatternAxis returns the second level's association granularity.
func (v Variation) PatternAxis() Axis {
	switch v {
	case GAg, PAg, SAg:
		return AxisGlobal
	case PAp, GAp, SAp:
		return AxisPerAddress
	default:
		return AxisPerSet
	}
}

// String returns the paper's abbreviation.
func (v Variation) String() string {
	switch v {
	case GAg:
		return "GAg"
	case PAg:
		return "PAg"
	case PAp:
		return "PAp"
	case GAp:
		return "GAp"
	case GAs:
		return "GAs"
	case PAs:
		return "PAs"
	case SAg:
		return "SAg"
	case SAs:
		return "SAs"
	case SAp:
		return "SAp"
	default:
		return fmt.Sprintf("Variation(%d)", uint8(v))
	}
}

// TwoLevelConfig describes a Two-Level Adaptive predictor.
type TwoLevelConfig struct {
	// Variation selects GAg, PAg or PAp.
	Variation Variation
	// HistoryBits is k, the history register length.
	HistoryBits int
	// Automaton is the pattern-table entry machine (Figure 2).
	Automaton automaton.Kind
	// Machine, when non-nil, overrides Automaton with a custom machine
	// (e.g. automaton.NewSaturating(3) for a 3-bit counter). The naming
	// convention cannot express custom machines, so configurations
	// using one are programmatic-only.
	Machine *automaton.Machine
	// Ideal selects the Ideal Branch History Table (per-address
	// variations only).
	Ideal bool
	// Entries and Assoc size the practical branch history table
	// (per-address variations with Ideal false). Assoc 1 is
	// direct-mapped.
	Entries int
	Assoc   int
	// HistorySets sizes the untagged per-set history register file of
	// the S* variations (power of two).
	HistorySets int
	// PatternSets sizes the per-set pattern table array of the *s
	// variations (power of two).
	PatternSets int
	// InheritPHTOnReplace, for PAp, keeps a slot's pattern table
	// contents when the slot is reallocated to a different branch
	// (hardware without a reset path would behave this way). The
	// default (false) reinitialises the table for the new branch,
	// matching the paper's per-address semantics; inheriting is an
	// ablation (DESIGN.md §5).
	InheritPHTOnReplace bool
	// SpeculativeHistory enables the §3.1 timing model: Predict shifts
	// its own prediction into the history register and Update repairs
	// the register on a misprediction. Meaningful only when branches
	// resolve late (sim.Options.PipelineDepth > 0); with immediate
	// resolution it is behaviourally identical to the base model.
	SpeculativeHistory bool
	// PatternInit overrides the initial pattern-history state. nil uses
	// the automaton's taken-biased initial state (§4.2). Ablation knob.
	PatternInit *automaton.State
	// ColdHistoryZero initialises a freshly allocated branch history
	// register to all zeros instead of the paper's all-ones plus
	// first-outcome smearing (§4.2). Ablation knob.
	ColdHistoryZero bool
	// Preset, when non-nil, freezes the global pattern table (Static
	// Training GSg/PSg): one direction per history pattern, 2^k long,
	// held as the PB automaton's preset bits. Invalid for PAp.
	Preset []bool
	// DisplayName overrides the generated configuration name.
	DisplayName string
}

// MaxPatternEntries caps a configuration's pattern-table entries, its
// table count times 2^k. The largest in the paper's grids is PAp's
// 512 tables of 2^12; a 2^30-entry table would hold a gigabyte of state.
// Behind an Ideal BHT the count is per branch; see CheckPatternTables.
const MaxPatternEntries = 1 << 24

// Validate reports whether the configuration is well-formed.
//
// Validate closes the panic-vs-error contract at the public boundary:
// every invalid field combination a caller can express — including
// out-of-range Automaton kinds and PatternInit states, which the
// internal automaton constructor and the flat layout treat as
// programmer errors — is caught here and returned as an error, so NewTwoLevel
// never panics on bad configuration.
func (c TwoLevelConfig) Validate() error {
	if c.Variation > SAp {
		return fmt.Errorf("predictor: invalid variation %s", c.Variation)
	}
	if c.Machine == nil && !c.Automaton.Valid() {
		return fmt.Errorf("predictor: invalid automaton kind %s", c.Automaton)
	}
	if c.HistoryBits < 1 || c.HistoryBits > flat.MaxHistoryBits {
		return fmt.Errorf("predictor: history length %d out of range", c.HistoryBits)
	}
	if c.PatternInit != nil {
		m := c.Machine
		if m == nil {
			m = automaton.New(c.Automaton)
		}
		if int(*c.PatternInit) >= m.States() {
			return fmt.Errorf("predictor: pattern init state %d out of range for %s (%d states)",
				*c.PatternInit, m.Kind(), m.States())
		}
	}
	needsStore := c.Variation.HistoryAxis() == AxisPerAddress ||
		c.Variation.PatternAxis() == AxisPerAddress
	if needsStore && !c.Ideal {
		if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
			return fmt.Errorf("predictor: BHT entries %d must be a power of two", c.Entries)
		}
		if c.Assoc <= 0 || c.Assoc&(c.Assoc-1) != 0 || c.Assoc > c.Entries || c.Assoc > flat.MaxAssoc {
			return fmt.Errorf("predictor: BHT associativity %d invalid", c.Assoc)
		}
	}
	if c.Variation.HistoryAxis() == AxisPerSet {
		if c.HistorySets <= 0 || c.HistorySets&(c.HistorySets-1) != 0 {
			return fmt.Errorf("predictor: per-set history needs a power-of-two HistorySets, got %d", c.HistorySets)
		}
	}
	if c.Variation.PatternAxis() == AxisPerSet {
		if c.PatternSets <= 0 || c.PatternSets&(c.PatternSets-1) != 0 {
			return fmt.Errorf("predictor: per-set pattern needs a power-of-two PatternSets, got %d", c.PatternSets)
		}
	}
	if err := c.CheckPatternTables(1); err != nil {
		return err
	}
	if c.Preset != nil {
		if c.Variation.PatternAxis() != AxisGlobal {
			return fmt.Errorf("predictor: preset pattern tables require a global pattern level (GSg/PSg)")
		}
		if len(c.Preset) != 1<<c.HistoryBits {
			return fmt.Errorf("predictor: preset table has %d entries, a %d-bit history needs %d",
				len(c.Preset), c.HistoryBits, 1<<c.HistoryBits)
		}
	}
	return nil
}

// CheckPatternTables reports whether the pattern tables fit
// MaxPatternEntries over a run that sees at most sites distinct
// branches. There is one global table, one per set, one per practical
// BHT entry, or, behind an Ideal BHT, one per branch. Only a caller that
// knows its trace can bound the last count; Validate checks one table.
// The history length must already be in range.
func (c TwoLevelConfig) CheckPatternTables(sites int) error {
	tables := 1
	switch {
	case c.Variation.PatternAxis() == AxisPerSet:
		tables = c.PatternSets
	case c.Variation.PatternAxis() == AxisPerAddress && c.Ideal:
		tables = max(sites, 1)
	case c.Variation.PatternAxis() == AxisPerAddress:
		tables = c.Entries
	}
	if tables > MaxPatternEntries>>c.HistoryBits {
		return fmt.Errorf("predictor: %d pattern tables of 2^%d entries exceed the cap of %d entries",
			tables, c.HistoryBits, MaxPatternEntries)
	}
	return nil
}

// TwoLevel is a Two-Level Adaptive Branch Predictor (or a Static Training
// predictor sharing its structure). Its tables are a flat.State, the
// layout the flat replay kernel also runs on in place.
type TwoLevel struct {
	cfg  TwoLevelConfig
	name string

	st flat.State

	// inflight holds the repair checkpoints of unresolved speculative
	// predictions (SpeculativeHistory only).
	inflight []checkpoint
}

// NewTwoLevel builds a predictor from cfg.
func NewTwoLevel(cfg TwoLevelConfig) (*TwoLevel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	machine := cfg.Machine
	if machine == nil {
		machine = automaton.New(cfg.Automaton)
	}
	if cfg.Preset != nil {
		machine = automaton.New(automaton.PB)
	}
	p := &TwoLevel{cfg: cfg}
	fc := flat.Config{
		HistoryAxis:         cfg.Variation.HistoryAxis(),
		PatternAxis:         cfg.Variation.PatternAxis(),
		HistoryBits:         cfg.HistoryBits,
		Machine:             machine,
		Init:                machine.Initial(),
		ColdHistoryZero:     cfg.ColdHistoryZero,
		InheritPHTOnReplace: cfg.InheritPHTOnReplace,
		Entries:             cfg.Entries,
		Assoc:               cfg.Assoc,
		HistorySets:         cfg.HistorySets,
		PatternSets:         cfg.PatternSets,
	}
	if cfg.PatternInit != nil {
		fc.Init = *cfg.PatternInit
	}
	if fc.HistoryAxis == AxisPerAddress || fc.PatternAxis == AxisPerAddress {
		fc.BHT = flat.CacheBHT
		if cfg.Ideal {
			fc.BHT = flat.IdealBHT
		}
	}
	p.st = flat.New(fc)
	if cfg.Preset != nil {
		for i, taken := range cfg.Preset {
			p.st.GStates[i] = automaton.State(bit(taken))
		}
	}
	p.name = cfg.DisplayName
	if p.name == "" {
		p.name = cfg.defaultName()
	}
	return p, nil
}

// MustTwoLevel is NewTwoLevel that panics on error; for tests and tables
// of known-good configurations.
func MustTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	p, err := NewTwoLevel(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// State returns the predictor's tables. The flat replay kernel
// (internal/sim/fastpath) replays on them in place, so a kernel run
// leaves the predictor exactly as the interpretive runner would.
func (p *TwoLevel) State() *flat.State { return &p.st }

// slot returns pc's BHT slot, allocating on a miss, or -1 when the
// variation has no BHT. count charges the lookup to the hit-rate
// counters (predictions do; updates and speculative shifts do not).
func (p *TwoLevel) slot(pc uint32, count bool) int {
	st := &p.st
	switch {
	case st.BHT == flat.NoBHT:
		return -1
	case !count:
		if j := st.Find(pc); j >= 0 {
			return j
		}
		return st.Allocate(pc)
	case st.BHT == flat.IdealBHT:
		return st.LookupIdeal(&st.LookupCounts, pc)
	default:
		return st.LookupCache(&st.LookupCounts, pc)
	}
}

// register returns the history register consulted for pc by the
// speculative path. A per-address register lives in pc's BHT entry,
// which is allocated when allocate is true; otherwise register returns
// nil for a non-resident branch. Finding a resident entry leaves the LRU
// order alone.
func (p *TwoLevel) register(pc uint32, allocate bool) *uint32 {
	st := &p.st
	if st.HistoryAxis != AxisPerAddress {
		return st.History(pc, -1)
	}
	j := st.Peek(pc)
	if j < 0 {
		if !allocate {
			return nil
		}
		j = st.Allocate(pc)
	}
	return &st.Hists[j]
}

func (c TwoLevelConfig) defaultName() string {
	scheme := c.Variation.String()
	atm := c.Automaton.String()
	if c.Machine != nil {
		atm = c.Machine.String()
	}
	if c.Preset != nil {
		// Static Training structures: GSg / PSg.
		if c.Variation == GAg {
			scheme = "GSg"
		} else {
			scheme = "PSg"
		}
		atm = "PB"
	}
	k := c.HistoryBits
	setSize := 1
	var hist string
	switch c.Variation.HistoryAxis() {
	case AxisGlobal:
		hist = fmt.Sprintf("HR(1,,%d-sr)", k)
	case AxisPerSet:
		hist = fmt.Sprintf("SHT(%d,,%d-sr)", c.HistorySets, k)
	default:
		if c.Ideal {
			hist = fmt.Sprintf("IBHT(inf,,%d-sr)", k)
		} else {
			hist = fmt.Sprintf("BHT(%d,%d,%d-sr)", c.Entries, c.Assoc, k)
		}
	}
	switch c.Variation.PatternAxis() {
	case AxisPerAddress:
		if c.Ideal {
			return fmt.Sprintf("%s(%s,infxPHT(2^%d,%s))", scheme, hist, k, atm)
		}
		setSize = c.Entries
	case AxisPerSet:
		setSize = c.PatternSets
	}
	return fmt.Sprintf("%s(%s,%dxPHT(2^%d,%s))", scheme, hist, setSize, k, atm)
}

// Name implements Predictor.
func (p *TwoLevel) Name() string { return p.name }

// Config returns the predictor's configuration.
func (p *TwoLevel) Config() TwoLevelConfig { return p.cfg }

// BHTMissRate returns the fraction of predictions that missed in the
// branch history table (0 for GAg).
func (p *TwoLevel) BHTMissRate() float64 {
	if p.st.Lookups == 0 {
		return 0
	}
	return float64(p.st.Misses) / float64(p.st.Lookups)
}

// Predict implements Predictor.
func (p *TwoLevel) Predict(b trace.Branch) bool {
	st := &p.st
	j := p.slot(b.PC, true)
	states, _ := st.Tables(b.PC, j)
	pred := st.Taken(states[*st.History(b.PC, j)&st.HistMask])
	if p.cfg.SpeculativeHistory {
		p.specShift(b, pred)
	}
	return pred
}

// Update implements Predictor. The pattern table entry addressed by the
// pre-resolution history is updated with the outcome, then the outcome is
// shifted into the history register (§2.1, Equations 1-2).
func (p *TwoLevel) Update(b trace.Branch, predicted bool) {
	if p.cfg.SpeculativeHistory && p.specUpdate(b) {
		return
	}
	p.train(b, p.slot(b.PC, false))
}

// Step is Predict then Update (without speculative history) with one
// BHT lookup; Update's second touch of the entry would not move it. It
// returns the prediction and the pattern index used.
func (p *TwoLevel) Step(b trace.Branch) (pred bool, pat uint32) {
	st := &p.st
	j := p.slot(b.PC, true)
	states, _ := st.Tables(b.PC, j)
	pat = *st.History(b.PC, j) & st.HistMask
	pred = st.Taken(states[pat])
	p.train(b, j)
	return pred, pat
}

// train resolves b at BHT slot j (-1 without a BHT): the Update step.
func (p *TwoLevel) train(b trace.Branch, j int) {
	st := &p.st
	states, touched := st.Tables(b.PC, j)
	r := st.History(b.PC, j)
	o := bit(b.Taken)
	st.Train(states, touched, *r&st.HistMask, o)
	*r = flat.Shift(*r, o, st.HistMask)
	if j >= 0 {
		// Cache the next prediction and the target address in the
		// entry, as the one-cycle pipeline of §3.1-3.2 would.
		st.Preds[j] = st.Taken(states[*r])
		if b.Taken {
			st.Targets[j] = b.Target
		}
	}
}

// ContextSwitch implements Predictor: the branch history (first level) is
// flushed and reinitialised; pattern tables are retained (§5.1.4).
func (p *TwoLevel) ContextSwitch() {
	p.inflight = p.inflight[:0]
	p.st.Flush()
}
