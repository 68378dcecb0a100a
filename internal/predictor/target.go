package predictor

import "twolevel/internal/flat"

// Target address caching (§3.2).
//
// After the direction of a branch is predicted there is still a pipeline
// bubble until the target address is known; the paper removes it by
// caching the target address of each branch in its branch history table
// entry. TargetPredictor is implemented by the schemes that keep such an
// entry (the per-address two-level schemes and the BTB designs); the
// simulator uses it to measure target-address coverage alongside
// direction accuracy.

// TargetPredictor is implemented by predictors that cache branch target
// addresses in their per-branch state.
type TargetPredictor interface {
	// PredictTarget returns the cached target address for the branch at
	// pc. ok is false when the branch misses in the table or no target
	// has been cached yet.
	PredictTarget(pc uint32) (target uint32, ok bool)
	// CachesTargets reports whether this configuration keeps per-branch
	// target state at all (GAg, for example, does not).
	CachesTargets() bool
}

// PredictTarget implements TargetPredictor for the per-address two-level
// schemes. GAg keeps no per-branch state and never predicts a target.
// The read leaves the entry's LRU position alone.
func (p *TwoLevel) PredictTarget(pc uint32) (uint32, bool) { return p.st.CachedTarget(pc) }

// CachesTargets implements TargetPredictor: every variation with a
// per-branch table caches targets; GAg has none.
func (p *TwoLevel) CachesTargets() bool { return p.st.BHT != flat.NoBHT }

// PredictTarget implements TargetPredictor for BTB designs. Like the
// two-level read it leaves the entry's LRU position alone.
func (p *BTB) PredictTarget(pc uint32) (uint32, bool) { return p.st.CachedTarget(pc) }

// CachesTargets implements TargetPredictor.
func (p *BTB) CachesTargets() bool { return true }

var (
	_ TargetPredictor = (*TwoLevel)(nil)
	_ TargetPredictor = (*BTB)(nil)
)
