// Package analysis characterises the residual mispredictions of a
// Two-Level Adaptive predictor — the direction the paper's conclusion
// points at ("we are examining that 3 percent to try to characterize
// it").
//
// The analyzer runs a PAg predictor (predictor.TwoLevel) with its pattern
// entries instrumented and attributes every misprediction to one of a
// small set of causes:
//
//   - BHTMiss: the branch was not resident in the branch history table
//     (first encounter, eviction, or context-switch flush), so the
//     prediction came from freshly initialised state.
//   - PatternCold: the pattern history entry consulted had never been
//     updated — the automaton was still in its initial state.
//   - PatternTraining: the entry had been updated only a few times
//     (fewer than trainingThreshold); the automaton was still learning.
//   - Interference: the entry was last updated by a *different* static
//     branch — the pattern-history interference PAp removes (§2.2).
//   - Inherent: a trained, uncontended entry predicted wrongly; the
//     branch's behaviour at this history pattern is genuinely variable.
package analysis

import (
	"fmt"
	"io"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// Category is a misprediction cause.
type Category uint8

// Misprediction categories.
const (
	BHTMiss Category = iota
	PatternCold
	PatternTraining
	Interference
	Inherent

	numCategories
)

// NumCategories is the number of categories.
const NumCategories = int(numCategories)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case BHTMiss:
		return "bht-miss"
	case PatternCold:
		return "pattern-cold"
	case PatternTraining:
		return "pattern-training"
	case Interference:
		return "interference"
	case Inherent:
		return "inherent"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// trainingThreshold is the update count below which a pattern entry is
// considered still in training.
const trainingThreshold = 4

// Breakdown is the result of an analysis run.
type Breakdown struct {
	// Predictions and Mispredictions count conditional branches.
	Predictions    uint64
	Mispredictions uint64
	// ByCategory attributes each misprediction to a cause.
	ByCategory [NumCategories]uint64
}

// Accuracy returns the overall prediction accuracy.
func (b Breakdown) Accuracy() float64 {
	if b.Predictions == 0 {
		return 0
	}
	return 1 - float64(b.Mispredictions)/float64(b.Predictions)
}

// Share returns category c's share of all mispredictions (0 when there
// were none).
func (b Breakdown) Share(c Category) float64 {
	if b.Mispredictions == 0 {
		return 0
	}
	return float64(b.ByCategory[c]) / float64(b.Mispredictions)
}

// patMeta instruments one pattern history table entry.
type patMeta struct {
	updates uint32
	lastPC  uint32
}

// Analyzer is an instrumented PAg predictor (k-bit per-address history,
// shared A2 pattern table): the predictor's own tables decide, and meta
// records who last updated each pattern entry and how often.
type Analyzer struct {
	p      *predictor.TwoLevel
	meta   []patMeta
	result Breakdown
}

// New returns an analyzer for a PAg predictor with k history bits and an
// entries×assoc branch history table (entries 0 selects the ideal table).
func New(k, entries, assoc int) (*Analyzer, error) {
	p, err := predictor.NewTwoLevel(predictor.TwoLevelConfig{
		Variation:   predictor.PAg,
		HistoryBits: k,
		Automaton:   automaton.A2,
		Ideal:       entries == 0,
		Entries:     entries,
		Assoc:       assoc,
	})
	if err != nil {
		return nil, err
	}
	return &Analyzer{p: p, meta: make([]patMeta, 1<<k)}, nil
}

// Record predicts and resolves one conditional branch, attributing a
// misprediction to its cause. The BHT miss is read off the table's miss
// counter, and the pattern entry off the branch's register before the
// update shifts it.
func (a *Analyzer) Record(b trace.Branch) {
	st := a.p.State()
	misses := st.Misses
	pred := a.p.Predict(b)
	idx := st.Hists[st.Peek(b.PC)] & st.HistMask
	a.result.Predictions++
	if pred != b.Taken {
		a.result.Mispredictions++
		meta := a.meta[idx]
		switch {
		case st.Misses != misses:
			a.result.ByCategory[BHTMiss]++
		case meta.updates == 0:
			a.result.ByCategory[PatternCold]++
		case meta.lastPC != b.PC:
			a.result.ByCategory[Interference]++
		case meta.updates < trainingThreshold:
			a.result.ByCategory[PatternTraining]++
		default:
			a.result.ByCategory[Inherent]++
		}
	}
	a.p.Update(b, pred)
	a.meta[idx].updates++
	a.meta[idx].lastPC = b.PC
}

// ContextSwitch flushes the branch history table (§5.1.4).
func (a *Analyzer) ContextSwitch() { a.p.ContextSwitch() }

// Breakdown returns the accumulated result.
func (a *Analyzer) Breakdown() Breakdown { return a.result }

// Analyze drains src (conditional branches only) through a fresh
// analyzer, stopping after budget conditional branches (0 = drain).
func Analyze(src trace.Source, k, entries, assoc int, budget uint64) (Breakdown, error) {
	a, err := New(k, entries, assoc)
	if err != nil {
		return Breakdown{}, err
	}
	for budget == 0 || a.result.Predictions < budget {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return a.result, err
		}
		if e.Trap || e.Branch.Class != trace.Cond {
			continue
		}
		a.Record(e.Branch)
	}
	return a.result, nil
}
