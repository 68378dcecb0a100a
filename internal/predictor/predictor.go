// Package predictor implements every branch prediction scheme evaluated in
// the paper:
//
//   - The three variations of Two-Level Adaptive Branch Prediction:
//     GAg (global history register, global pattern history table),
//     PAg (per-address branch history table, global pattern table) and
//     PAp (per-address history and per-address pattern tables), with any
//     of the Figure 2 automata and practical or ideal branch history
//     tables (§2.2, §3.3).
//   - Lee & A. Smith's Static Training mapped onto the same structures:
//     GSg and PSg, with preset pattern tables built by a training pass.
//   - Branch Target Buffer designs (J. Smith): a tagged table whose
//     entries hold a per-branch automaton (A2 or Last-Time), no second
//     level.
//   - The static schemes Always Taken, Backward-Taken/Forward-Not-Taken
//     (BTFN) and Profiling.
//
// All schemes implement the Predictor interface driven by the simulator in
// package sim: Predict is called when a conditional branch is fetched,
// Update when it resolves, ContextSwitch on a process switch.
//
// # Panic-vs-error contract
//
// Exported constructors (NewTwoLevel, NewBTB, ...) validate their
// configuration exhaustively and return an error for anything a caller
// can get wrong — sizes, automaton kinds, init states — and never panic
// on bad input. The Must* variants exist for tables of known-good
// configurations and panic on the same errors. Deeper internal
// constructors (automaton.New, flat.New) assume validated arguments
// and panic if handed garbage: reaching such a panic through
// an exported constructor is a bug in this package, not the caller.
package predictor

import "twolevel/internal/trace"

// Predictor is a dynamic or static conditional-branch predictor.
//
// The simulator calls Predict before the branch outcome is known — the
// Taken field of the argument must not be consulted there (the simulator
// enforces this by clearing it) — and Update once the branch resolves,
// with the outcome filled in and the earlier prediction echoed back.
type Predictor interface {
	// Name returns the scheme's configuration name in the paper's
	// naming convention (§4.2).
	Name() string
	// Predict returns the predicted direction for conditional branch b.
	Predict(b trace.Branch) bool
	// Update informs the predictor of the resolved outcome b.Taken.
	// predicted echoes the value Predict returned for this instance of
	// the branch.
	Update(b trace.Branch, predicted bool)
	// ContextSwitch models a process switch: per-branch history state
	// is flushed; pattern history tables are deliberately retained
	// (§5.1.4).
	ContextSwitch()
}
