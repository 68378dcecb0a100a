package predictor

import (
	"fmt"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// BTBMissPolicy selects the static prediction used when a branch misses in
// a Branch Target Buffer (§3.2 leaves the static fallback open).
type BTBMissPolicy uint8

const (
	// BTBMissTaken predicts taken on a miss, consistent with the
	// taken-biased initialisation of §4.2. This is the default.
	BTBMissTaken BTBMissPolicy = iota
	// BTBMissBTFN predicts backward-taken/forward-not-taken on a miss.
	BTBMissBTFN
)

// BTBConfig describes a Branch Target Buffer design (J. Smith [17]): a
// tagged, set-associative table whose entries keep a per-branch automaton
// — branch history, not pattern history.
type BTBConfig struct {
	// Entries and Assoc size the buffer.
	Entries int
	Assoc   int
	// Automaton is the per-branch machine: A2 or Last-Time in the
	// paper's comparisons; any Figure 2 machine is accepted.
	Automaton automaton.Kind
	// MissPolicy is the static prediction on a buffer miss.
	MissPolicy BTBMissPolicy
	// DisplayName overrides the generated configuration name.
	DisplayName string
}

// BTB is a Branch Target Buffer predictor. Its table is a flat.State
// in BTB form, the layout the flat replay kernel also runs on in place.
type BTB struct {
	cfg  BTBConfig
	name string
	st   flat.State
}

// NewBTB builds a Branch Target Buffer predictor from cfg.
func NewBTB(cfg BTBConfig) (*BTB, error) {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return nil, fmt.Errorf("predictor: BTB entries %d must be a power of two", cfg.Entries)
	}
	if cfg.Assoc <= 0 || cfg.Assoc&(cfg.Assoc-1) != 0 || cfg.Assoc > cfg.Entries || cfg.Assoc > flat.MaxAssoc {
		return nil, fmt.Errorf("predictor: BTB associativity %d invalid", cfg.Assoc)
	}
	if !cfg.Automaton.Valid() {
		return nil, fmt.Errorf("predictor: invalid automaton kind %s", cfg.Automaton)
	}
	if cfg.Automaton == automaton.PB {
		return nil, fmt.Errorf("predictor: BTB cannot use the preset-bit automaton")
	}
	machine := automaton.New(cfg.Automaton)
	p := &BTB{cfg: cfg, st: flat.New(flat.Config{
		Machine:  machine,
		Init:     machine.Initial(),
		BHT:      flat.CacheBHT,
		Entries:  cfg.Entries,
		Assoc:    cfg.Assoc,
		BTB:      true,
		MissBTFN: cfg.MissPolicy == BTBMissBTFN,
	})}
	p.name = cfg.DisplayName
	if p.name == "" {
		p.name = fmt.Sprintf("BTB(BHT(%d,%d,%s),)", cfg.Entries, cfg.Assoc, cfg.Automaton)
	}
	return p, nil
}

// MustBTB is NewBTB that panics on error.
func MustBTB(cfg BTBConfig) *BTB {
	p, err := NewBTB(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// State returns the predictor's table. The flat replay kernel
// (internal/sim/fastpath) replays on it in place.
func (p *BTB) State() *flat.State { return &p.st }

// Name implements Predictor.
func (p *BTB) Name() string { return p.name }

// Predict implements Predictor. A hit predicts from the entry's
// automaton; a miss uses the static fallback policy and allocates
// nothing.
func (p *BTB) Predict(b trace.Branch) bool {
	_, taken := p.st.LookupBTB(&p.st.LookupCounts, b.PC, b.Target)
	return taken
}

// Update implements Predictor. A missing branch is allocated with the
// automaton's initial state before the outcome is applied.
func (p *BTB) Update(b trace.Branch, predicted bool) {
	p.st.TrainBTB(p.st.Find(b.PC), b.PC, bit(b.Taken), b.Target)
}

// ContextSwitch implements Predictor: every entry is invalidated.
func (p *BTB) ContextSwitch() { p.st.Flush() }

var _ Predictor = (*BTB)(nil)
