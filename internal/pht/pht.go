// Package pht implements the second level of Two-Level Adaptive Branch
// Prediction: pattern history tables.
//
// A pattern history table has 2^k entries, one per possible content of a
// k-bit history register; each entry holds the pattern history bits S of
// one of the automata in package automaton. Prediction reads λ(S) from the
// entry addressed by the history pattern; resolution applies δ (§2.1).
//
// The package also provides Trainer/preset tables for the Static Training
// schemes (GSg, PSg): a training pass counts per-pattern outcomes and the
// majority direction is frozen into a preset-bit (PB) table.
package pht

import (
	"fmt"
	"math/bits"

	"twolevel/internal/automaton"
)

// Table is one pattern history table.
type Table struct {
	m       *automaton.Machine
	k       int
	mask    uint32
	init    automaton.State
	entries []automaton.State
	// touched is a bitset of entries that have received at least one
	// Update — the "distinct patterns seen" occupancy telemetry. The
	// hot-path cost is a single unconditional OR store per Update; the
	// population count is computed lazily by Touched.
	touched []uint64
}

// New returns a 2^k-entry table of machine m entries, each initialised to
// the machine's initial state (§4.2). Tables are never reinitialised
// during execution, not even across context switches (§5.1.4).
func New(k int, m *automaton.Machine) *Table {
	return NewInit(k, m, m.Initial())
}

// NewInit is New with an explicit initial state — the §4.2
// initialisation ablation (the paper initialises on the taken side
// because taken branches dominate).
func NewInit(k int, m *automaton.Machine, init automaton.State) *Table {
	if k < 1 || k > 30 {
		//lint:allow nopanic programmer-error guard below the validated-constructor layer (predictor.NewTwoLevel validates first); contract-tested
		panic(fmt.Sprintf("pht: history length %d out of range", k))
	}
	if int(init) >= m.States() {
		//lint:allow nopanic programmer-error guard below the validated-constructor layer (predictor.NewTwoLevel validates first); contract-tested
		panic(fmt.Sprintf("pht: initial state %d out of range for %s", init, m))
	}
	t := &Table{
		m: m, k: k, mask: uint32(1)<<k - 1, init: init,
		entries: make([]automaton.State, 1<<k),
		touched: make([]uint64, (1<<k+63)/64),
	}
	t.Reset()
	return t
}

// Reset restores every entry to the table's initial state and clears the
// touched-pattern telemetry.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = t.init
	}
	for i := range t.touched {
		t.touched[i] = 0
	}
}

// Len returns the number of entries (2^k).
func (t *Table) Len() int { return len(t.entries) }

// HistoryBits returns k.
func (t *Table) HistoryBits() int { return t.k }

// Machine returns the automaton used by the entries.
func (t *Table) Machine() *automaton.Machine { return t.m }

// Predict returns λ(S) for the entry addressed by pattern.
func (t *Table) Predict(pattern uint32) bool {
	return t.m.Predict(t.entries[pattern&t.mask])
}

// Update applies δ to the entry addressed by pattern.
func (t *Table) Update(pattern uint32, taken bool) {
	i := pattern & t.mask
	t.entries[i] = t.m.Next(t.entries[i], taken)
	t.touched[i>>6] |= 1 << (i & 63)
}

// Touched returns the number of distinct patterns that have received at
// least one Update since construction or the last Reset — pattern table
// occupancy telemetry.
func (t *Table) Touched() int {
	n := 0
	for _, w := range t.touched {
		n += bits.OnesCount64(w)
	}
	return n
}

// State returns the raw pattern history bits for pattern (for inspection
// and tests).
func (t *Table) State(pattern uint32) automaton.State {
	return t.entries[pattern&t.mask]
}

// SetState forces the pattern history bits for pattern. Used to load
// preset tables for the Static Training schemes.
func (t *Table) SetState(pattern uint32, s automaton.State) {
	t.entries[pattern&t.mask] = s
}

// Trainer accumulates per-pattern taken/not-taken counts during a Static
// Training profiling pass (Lee & A. Smith's method applied to the paper's
// structures).
type Trainer struct {
	k        int
	mask     uint32
	taken    []uint64
	notTaken []uint64
}

// NewTrainer returns a trainer for k-bit patterns.
func NewTrainer(k int) *Trainer {
	if k < 1 || k > 30 {
		//lint:allow nopanic programmer-error guard below the validated-constructor layer (training tables are sized by validated configs); contract-tested
		panic(fmt.Sprintf("pht: history length %d out of range", k))
	}
	return &Trainer{
		k:        k,
		mask:     uint32(1)<<k - 1,
		taken:    make([]uint64, 1<<k),
		notTaken: make([]uint64, 1<<k),
	}
}

// Observe records one resolved branch outcome under pattern.
func (tr *Trainer) Observe(pattern uint32, taken bool) {
	if taken {
		tr.taken[pattern&tr.mask]++
	} else {
		tr.notTaken[pattern&tr.mask]++
	}
}

// Observations returns the total number of outcomes recorded.
func (tr *Trainer) Observations() uint64 {
	var n uint64
	for i := range tr.taken {
		n += tr.taken[i] + tr.notTaken[i]
	}
	return n
}

// Preset freezes the majority decision for every pattern into a preset-bit
// table. Patterns never observed during training predict taken, consistent
// with the initialisation bias of §4.2.
func (tr *Trainer) Preset() *Table {
	t := New(tr.k, automaton.New(automaton.PB))
	for i := range tr.taken {
		if tr.taken[i] >= tr.notTaken[i] {
			t.SetState(uint32(i), 1)
		} else {
			t.SetState(uint32(i), 0)
		}
	}
	return t
}
