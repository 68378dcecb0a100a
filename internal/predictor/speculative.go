package predictor

import (
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// Speculative history update (§3.1).
//
// In a pipelined machine the outcome of a branch may not be known before
// the next branch must be predicted. Using the obsolete history degrades
// accuracy, so the paper proposes shifting the *prediction* into the
// history register at predict time and repairing the register when a
// misprediction resolves.
//
// With SpeculativeHistory enabled, Predict shifts its own prediction into
// the affected history register and records a repair checkpoint (the
// pre-shift register, fresh bit included). Update consumes checkpoints in
// FIFO order — branches resolve in program order — updates the pattern
// table with the checkpointed (pre-shift) pattern, and on a
// misprediction rolls every younger speculative shift back before
// shifting the actual outcome into the checkpointed register with the
// base model's flat.Shift, so a register still awaiting its first
// outcome is smeared as §4.2 prescribes. The driver (sim.Run with
// PipelineDepth > 0) then re-predicts the squashed younger branches,
// exactly as a refetched pipeline would.
//
// The register reads and writes of the speculative path (the shift, the
// rollback, the repair) leave the BHT's LRU order alone: only Predict's
// and Update's own lookups touch an entry, as in the base model. At
// pipeline depth 0 a speculative predictor therefore ends in exactly the
// base model's state.

// checkpoint is one speculatively-predicted, unresolved branch.
type checkpoint struct {
	pc     uint32 // branch address (unused for GAg/GSg)
	before uint32 // history register before the speculative shift, fresh bit included
	pred   bool   // the speculative outcome shifted in
}

// specShift performs the speculative history shift for b's register and
// pushes a repair checkpoint.
func (p *TwoLevel) specShift(b trace.Branch, pred bool) {
	r := p.register(b.PC, true)
	p.inflight = append(p.inflight, checkpoint{pc: b.PC, before: *r, pred: pred})
	*r = flat.Shift(*r, bit(pred), p.st.HistMask)
}

// specUpdate resolves the oldest in-flight branch. It returns false if the
// checkpoint queue is out of sync with the resolution stream, in which
// case the caller falls back to the non-speculative update path.
func (p *TwoLevel) specUpdate(b trace.Branch) bool {
	if len(p.inflight) == 0 || p.inflight[0].pc != b.PC {
		return false
	}
	cp := p.inflight[0]
	p.inflight = p.inflight[1:]

	// The pattern table is updated with the pre-shift pattern — the one
	// the prediction was made from (its update timing "is not as
	// critical", so it waits for the real outcome).
	st := &p.st
	j := p.slot(b.PC, false)
	states, touched := st.Tables(b.PC, j)
	st.Train(states, touched, cp.before&st.HistMask, bit(b.Taken))
	if j >= 0 && b.Taken {
		st.Targets[j] = b.Target
	}

	if cp.pred != b.Taken {
		// Misprediction: the younger speculative shifts belong to
		// squashed wrong-path work. Roll them back newest-to-oldest so
		// each register ends at its oldest checkpoint, then shift the
		// actual outcome of the mispredicted branch into its
		// checkpointed register.
		for i := len(p.inflight) - 1; i >= 0; i-- {
			young := p.inflight[i]
			if r := p.register(young.pc, false); r != nil {
				*r = young.before
			}
		}
		p.inflight = p.inflight[:0]
		if r := p.register(b.PC, false); r != nil {
			*r = flat.Shift(cp.before, bit(b.Taken), st.HistMask)
		}
	}
	if j >= 0 {
		// Cache the next prediction, as Update does.
		st.Preds[j] = st.Taken(states[*st.History(b.PC, j)&st.HistMask])
	}
	return true
}

func bit(taken bool) uint32 {
	if taken {
		return 1
	}
	return 0
}

// InFlight returns the number of unresolved speculative predictions.
func (p *TwoLevel) InFlight() int { return len(p.inflight) }
