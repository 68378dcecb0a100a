package fastpath

// The hot loops. Each run* function walks the packed columns by index
// with the predict→verify→update step fused into straight-line array
// code; the flatloop analyzer in cmd/brlint enforces that no interface
// method other than context.Context cancellation polling is called from
// these functions. Specialized loops cover the paper's three
// implementations (GAg, PAg, PAp on the practical BHT); runGeneric
// covers the taxonomy extensions, the Ideal table and the BTB designs
// with the same flat state, trading a few predictable branches for
// generality.

import (
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// runStatic replays the static schemes: AlwaysTaken, BTFN and
// Profiling, whose per-branch directions are fixed before the run.
// Like every hot loop here it has a tap-free twin: with telemetry off
// the loop carries no tap branch at all (see runPAgCache).
func (k *Kernel) runStatic(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runStaticPlain(instrs, pcs, targets, meta, start, end)
	}
	return k.runStaticTap(instrs, pcs, targets, meta, start, end)
}

func (k *Kernel) runStaticPlain(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	btfn, prof := k.kind == kindBTFN, k.prof
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			c.ContextSwitches++
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		if taken {
			c.TakenCond++
		}
		pred := true
		switch {
		case btfn:
			pred = targets[i] < pcs[i]
		case prof != nil:
			pred = prof.Direction(pcs[i])
		}
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runStaticTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	btfn, prof := k.kind == kindBTFN, k.prof
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	tap := k.tap
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			c.ContextSwitches++
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		if taken {
			c.TakenCond++
		}
		pred := true
		switch {
		case btfn:
			pred = targets[i] < pcs[i]
		case prof != nil:
			pred = prof.Direction(pcs[i])
		}
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if tap != nil {
			tap.Resolve(pcs[i], taken, pred == taken)
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

// runGAg replays the global/global variations (GAg, GSg presets): one
// shared history register, one shared pattern table — the entire
// predictor state is a uint32 and two slices.
func (k *Kernel) runGAg(instrs, pcs []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runGAgPlain(instrs, pcs, meta, start, end)
	}
	return k.runGAgTap(instrs, pcs, meta, start, end)
}

func (k *Kernel) runGAgPlain(instrs, pcs []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	histMask, resetHist := st.HistMask, st.ResetHist
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	ghr := st.GHR
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				ghr = resetHist
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			ghr = resetHist
			c.ContextSwitches++
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pat := ghr & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		ghr = flat.Shift(ghr, o, histMask)
	}
	st.GHR = ghr
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runGAgTap(instrs, pcs []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	tap := k.tap
	histMask, resetHist := st.HistMask, st.ResetHist
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	ghr := st.GHR
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				ghr = resetHist
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			ghr = resetHist
			c.ContextSwitches++
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pat := ghr & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if tap != nil {
			tap.Resolve(pcs[i], taken, pred == taken)
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		ghr = flat.Shift(ghr, o, histMask)
	}
	st.GHR = ghr
	k.sinceCS = sinceCS
	return i - start, err
}

// runPAgCache replays PAg/PSg on the practical BHT: per-address history
// registers in the practical BHT, one global pattern table. The
// tap-free twin exists so a run without telemetry pays nothing — not
// even a per-event nil check — keeping the headline kernel throughput
// where it was before the tap existed.
func (k *Kernel) runPAgCache(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runPAgCachePlain(instrs, pcs, targets, meta, start, end)
	}
	return k.runPAgCacheTap(instrs, pcs, targets, meta, start, end)
}

func (k *Kernel) runPAgCachePlain(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		slot := st.LookupCache(&st.Clock, pc, flat.BranchTouches)
		h := st.Hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		st.Hists[slot] = h
		st.Preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			st.Targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runPAgCacheTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	tap := k.tap
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		slot := st.LookupCache(&st.Clock, pc, flat.BranchTouches)
		h := st.Hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if tap != nil {
			tap.Resolve(pc, taken, pred == taken)
		}
		if pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		st.Hists[slot] = h
		st.Preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			st.Targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

// runPApCache replays PAp on the practical BHT: per-address history and
// a per-slot pattern table, both bound to the practical BHT's slots.
func (k *Kernel) runPApCache(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runPApCachePlain(instrs, pcs, targets, meta, start, end)
	}
	return k.runPApCacheTap(instrs, pcs, targets, meta, start, end)
}

func (k *Kernel) runPApCachePlain(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		slot := st.LookupCache(&st.Clock, pc, flat.BranchTouches)
		states := st.PHTStates[slot]
		touched := st.PHTTouched[slot]
		h := st.Hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		st.Hists[slot] = h
		st.Preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			st.Targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runPApCacheTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	tap := k.tap
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		slot := st.LookupCache(&st.Clock, pc, flat.BranchTouches)
		states := st.PHTStates[slot]
		touched := st.PHTTouched[slot]
		h := st.Hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if tap != nil {
			tap.Resolve(pc, taken, pred == taken)
		}
		if pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		st.Hists[slot] = h
		st.Preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			st.Targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

// lookupBTB is one Branch Target Buffer step for the conditional branch
// at pc with outcome o (0 or 1): it predicts, scores the direction and,
// when a taken prediction meets a taken branch, the cached target, then
// trains the entry. It reports whether the direction was right.
func (k *Kernel) lookupBTB(pc, target, o uint32) bool {
	st, c := k.st, &k.c
	slot, pred := st.LookupBTB(&st.Clock, pc, target, flat.BranchTouches)
	taken := o != 0
	c.Predictions++
	if pred == taken {
		c.Correct++
	}
	if pred && taken {
		c.TargetPredictions++
		if slot >= 0 && st.Targets[slot] != 0 && st.Targets[slot] == target {
			c.TargetCorrect++
		}
	}
	st.TrainBTB(slot, pc, o, target)
	return pred == taken
}

// runGeneric replays every remaining flattened variation — the taxonomy
// extensions (GAp/GAs/PAs/SAg/SAs/SAp) and any variation on the Ideal
// BHT — resolving the history and pattern levels per branch from the
// same flat state the specialized loops use. It also serves the Branch
// Target Buffer designs, whose one level is the practical table: a hit
// advances the LRU clock by flat.BranchTouches, a miss predicts by the
// miss policy and allocates only when TrainBTB resolves the branch.
func (k *Kernel) runGeneric(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runGenericPlain(instrs, pcs, targets, meta, start, end)
	}
	return k.runGenericTap(instrs, pcs, targets, meta, start, end)
}

func (k *Kernel) runGenericPlain(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	hasStore := st.BHT != flat.NoBHT
	useCache := st.BHT == flat.CacheBHT
	btb := k.kind == kindBTB
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		if btb {
			k.lookupBTB(pc, targets[i], o)
			continue
		}
		slot := -1
		if hasStore {
			if useCache {
				slot = st.LookupCache(&st.Clock, pc, flat.BranchTouches)
			} else {
				slot = st.LookupIdeal(&st.Clock, pc)
			}
		}
		hp := st.History(pc, slot)
		states, touched := st.Tables(pc, slot)
		h := *hp
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if hasStore && pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		*hp = h
		if slot >= 0 {
			st.Preds[slot] = predMask>>states[h]&1 != 0
			if taken {
				st.Targets[slot] = targets[i]
			}
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runGenericTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	st := k.st
	tap := k.tap
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	hasStore := st.BHT != flat.NoBHT
	useCache := st.BHT == flat.CacheBHT
	btb := k.kind == kindBTB
	sinceCS := k.sinceCS
	var sinceCheck uint32
	i := start
	var err error
	for ; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err = ctx.Err(); err != nil {
					break
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		c.Instructions += ins
		sinceCS += ins
		if m&trace.MetaTrap != 0 {
			c.Traps++
			if cs {
				st.Flush()
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			st.Flush()
			c.ContextSwitches++
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		c.ByClass[cls]++
		if trace.Class(cls) != trace.Cond {
			continue
		}
		taken := m&trace.MetaTaken != 0
		var o uint32
		if taken {
			o = 1
			c.TakenCond++
		}
		pc := pcs[i]
		if btb {
			hit := k.lookupBTB(pc, targets[i], o)
			if tap != nil {
				tap.Resolve(pc, taken, hit)
			}
			continue
		}
		slot := -1
		if hasStore {
			if useCache {
				slot = st.LookupCache(&st.Clock, pc, flat.BranchTouches)
			} else {
				slot = st.LookupIdeal(&st.Clock, pc)
			}
		}
		hp := st.History(pc, slot)
		states, touched := st.Tables(pc, slot)
		h := *hp
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if tap != nil {
			tap.Resolve(pc, taken, pred == taken)
		}
		if hasStore && pred && taken {
			c.TargetPredictions++
			if t := st.Targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		h = flat.Shift(h, o, histMask)
		*hp = h
		if slot >= 0 {
			st.Preds[slot] = predMask>>states[h]&1 != 0
			if taken {
				st.Targets[slot] = targets[i]
			}
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}
