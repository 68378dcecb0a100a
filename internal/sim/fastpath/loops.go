package fastpath

// The hot loops. Each run* function walks the packed columns by index
// with the predict→verify→update step fused into straight-line array
// code; the flatloop analyzer in cmd/brlint enforces that no interface
// method other than context.Context cancellation polling is called from
// these functions. Specialized loops cover the paper's three
// implementations (GAg, PAg, PAp on the practical BHT); runGeneric
// covers the taxonomy extensions and the Ideal table with the same flat
// state, trading a few predictable branches for generality.

import (
	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// runStatic replays the stateless static schemes (AlwaysTaken, BTFN).
// Like every hot loop here it has a tap-free twin: with telemetry off
// the loop carries no tap branch at all (see runPAgCache).
func (k *Kernel) runStatic(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	if k.tap == nil {
		return k.runStaticPlain(instrs, pcs, targets, meta, start, end)
	}
	return k.runStaticTap(instrs, pcs, targets, meta, start, end)
}

func (k *Kernel) runStaticPlain(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	btfn := k.kind == kindBTFN
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
		if btfn {
			pred = targets[i] < pcs[i]
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
	btfn := k.kind == kindBTFN
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
		if btfn {
			pred = targets[i] < pcs[i]
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
	histMask, resetHist := k.histMask, k.resetHist
	delta, predMask := k.delta, k.predMask
	states, touched := k.gStates, k.gTouched
	ghr := k.ghr
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
		if ghr&freshBit != 0 {
			ghr = o * histMask // smear the first outcome (§4.2)
		} else {
			ghr = (ghr<<1 | o) & histMask
		}
	}
	k.ghr = ghr
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runGAgTap(instrs, pcs []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	tap := k.tap
	histMask, resetHist := k.histMask, k.resetHist
	delta, predMask := k.delta, k.predMask
	states, touched := k.gStates, k.gTouched
	ghr := k.ghr
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
		if ghr&freshBit != 0 {
			ghr = o * histMask // smear the first outcome (§4.2)
		} else {
			ghr = (ghr<<1 | o) & histMask
		}
	}
	k.ghr = ghr
	k.sinceCS = sinceCS
	return i - start, err
}

// lookupAllocCache finds or allocates pc's slot in the mirrored
// practical BHT, reproducing the interpretive entry() semantics: LRU
// victim selection, §4.2 payload initialisation, and PAp per-slot
// pattern-table materialise/reset rules. It advances bc — the serial
// kernel's own clock and counters, or a shard worker's private ones
// (each worker touches only its partition's slots, so the shared mirror
// arrays see disjoint writes) — counting one lookup (and a miss when
// allocating) toward the BHT hit-rate counters.
func (k *Kernel) lookupAllocCache(bc *bhtClock, pc uint32) int {
	bc.lookups++
	base := int(pc>>2&k.setMask) * k.assoc
	for w := 0; w < k.assoc; w++ {
		j := base + w
		if k.valid[j] && k.pcs[j] == pc {
			bc.clock++
			k.stamps[j] = bc.clock
			return j
		}
	}
	bc.misses++
	victim := base
	for w := 0; w < k.assoc; w++ {
		j := base + w
		if !k.valid[j] {
			victim = j
			break
		}
		if k.stamps[j] < k.stamps[victim] {
			victim = j
		}
	}
	recycled := k.valid[victim] && k.pcs[victim] != pc
	bc.clock++
	k.ever[victim] = true
	k.valid[victim] = true
	k.pcs[victim] = pc
	k.stamps[victim] = bc.clock
	k.hists[victim] = k.freshHist
	k.preds[victim] = true
	if k.perAddrPHT {
		switch {
		case k.phtStates[victim] == nil:
			t := k.newSlotPHT()
			k.phtTables[victim] = t
			k.phtStates[victim] = t.RawStates()
			k.phtTouched[victim] = t.RawTouched()
		case recycled && k.phtInit != nil:
			copy(k.phtStates[victim], k.phtInit)
			clear(k.phtTouched[victim])
		}
	}
	return victim
}

// lookupAllocIdeal is lookupAllocCache for the Ideal table: no capacity,
// no replacement, flushed entries revive with their pattern table intact.
func (k *Kernel) lookupAllocIdeal(pc uint32) int {
	k.lookups++
	idx, added := k.idealIdx.add(pc)
	if !added && k.valid[idx] {
		return int(idx)
	}
	k.misses++
	if added {
		k.idealPCs = append(k.idealPCs, pc)
		k.valid = append(k.valid, false)
		k.hists = append(k.hists, 0)
		k.preds = append(k.preds, false)
		k.targets = append(k.targets, 0)
		if k.perAddrPHT {
			k.phtTables = append(k.phtTables, nil)
			k.phtStates = append(k.phtStates, nil)
			k.phtTouched = append(k.phtTouched, nil)
		}
	}
	k.valid[idx] = true
	k.hists[idx] = k.freshHist
	k.preds[idx] = true
	if k.perAddrPHT && k.phtStates[idx] == nil {
		t := k.newSlotPHT()
		k.phtTables[idx] = t
		k.phtStates[idx] = t.RawStates()
		k.phtTouched[idx] = t.RawTouched()
	}
	return int(idx)
}

// flushState is the predictor-side half of a context switch: invalidate
// the BHT mirror and reinitialise the first-level history, retaining
// pattern tables (§5.1.4).
func (k *Kernel) flushState() {
	for i := range k.valid {
		k.valid[i] = false
	}
	switch k.hAxis {
	case predictor.AxisGlobal:
		k.ghr = k.resetHist
	case predictor.AxisPerSet:
		for i := range k.setHists {
			k.setHists[i] = k.resetHist
		}
	}
}

// runPAgCache replays PAg/PSg on the practical BHT: per-address history
// registers in the mirrored cache, one global pattern table. The
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
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
	states, touched := k.gStates, k.gTouched
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
				valid := k.valid
				for j := range valid {
					valid[j] = false
				}
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			valid := k.valid
			for j := range valid {
				valid[j] = false
			}
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
		slot := k.lookupAllocCache(&k.bhtClock, pc)
		h := k.hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if pred && taken {
			c.TargetPredictions++
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		k.hists[slot] = h
		k.preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			k.targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runPAgCacheTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	tap := k.tap
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
	states, touched := k.gStates, k.gTouched
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
				valid := k.valid
				for j := range valid {
					valid[j] = false
				}
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			valid := k.valid
			for j := range valid {
				valid[j] = false
			}
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
		slot := k.lookupAllocCache(&k.bhtClock, pc)
		h := k.hists[slot]
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
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		k.hists[slot] = h
		k.preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			k.targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

// runPApCache replays PAp on the practical BHT: per-address history and
// a per-slot pattern table, both in the mirrored cache.
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
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
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
				valid := k.valid
				for j := range valid {
					valid[j] = false
				}
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			valid := k.valid
			for j := range valid {
				valid[j] = false
			}
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
		slot := k.lookupAllocCache(&k.bhtClock, pc)
		states := k.phtStates[slot]
		touched := k.phtTouched[slot]
		h := k.hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := predMask>>s&1 != 0
		c.Predictions++
		if pred == taken {
			c.Correct++
		}
		if pred && taken {
			c.TargetPredictions++
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		k.hists[slot] = h
		k.preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			k.targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

func (k *Kernel) runPApCacheTap(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	c := &k.c
	tap := k.tap
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
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
				valid := k.valid
				for j := range valid {
					valid[j] = false
				}
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			valid := k.valid
			for j := range valid {
				valid[j] = false
			}
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
		slot := k.lookupAllocCache(&k.bhtClock, pc)
		states := k.phtStates[slot]
		touched := k.phtTouched[slot]
		h := k.hists[slot]
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
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		k.hists[slot] = h
		k.preds[slot] = predMask>>states[h]&1 != 0
		if taken {
			k.targets[slot] = targets[i]
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}

// runGeneric replays every remaining flattened variation — the taxonomy
// extensions (GAp/GAs/PAs/SAg/SAs/SAp) and any variation on the Ideal
// BHT — resolving the history and pattern levels per branch from the
// same flat state the specialized loops use.
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
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
	hasStore := k.store != nil
	useCache := k.cache != nil
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
				k.flushState()
				c.ContextSwitches++
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			k.flushState()
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
		slot := -1
		if hasStore {
			if useCache {
				slot = k.lookupAllocCache(&k.bhtClock, pc)
			} else {
				slot = k.lookupAllocIdeal(pc)
			}
		}
		var hp *uint32
		switch k.hAxis {
		case predictor.AxisGlobal:
			hp = &k.ghr
		case predictor.AxisPerSet:
			hp = &k.setHists[pc>>2&k.histSetMask]
		default:
			hp = &k.hists[slot]
		}
		var states []automaton.State
		var touched []uint64
		switch k.pAxis {
		case predictor.AxisGlobal:
			states, touched = k.gStates, k.gTouched
		case predictor.AxisPerSet:
			si := pc >> 2 & k.patSetMask
			states, touched = k.setStates[si], k.setTouched[si]
		default:
			states, touched = k.phtStates[slot], k.phtTouched[slot]
		}
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
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		*hp = h
		if slot >= 0 {
			k.preds[slot] = predMask>>states[h]&1 != 0
			if taken {
				k.targets[slot] = targets[i]
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
	tap := k.tap
	histMask := k.histMask
	delta, predMask := k.delta, k.predMask
	hasStore := k.store != nil
	useCache := k.cache != nil
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
				k.flushState()
				c.ContextSwitches++
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			k.flushState()
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
		slot := -1
		if hasStore {
			if useCache {
				slot = k.lookupAllocCache(&k.bhtClock, pc)
			} else {
				slot = k.lookupAllocIdeal(pc)
			}
		}
		var hp *uint32
		switch k.hAxis {
		case predictor.AxisGlobal:
			hp = &k.ghr
		case predictor.AxisPerSet:
			hp = &k.setHists[pc>>2&k.histSetMask]
		default:
			hp = &k.hists[slot]
		}
		var states []automaton.State
		var touched []uint64
		switch k.pAxis {
		case predictor.AxisGlobal:
			states, touched = k.gStates, k.gTouched
		case predictor.AxisPerSet:
			si := pc >> 2 & k.patSetMask
			states, touched = k.setStates[si], k.setTouched[si]
		default:
			states, touched = k.phtStates[slot], k.phtTouched[slot]
		}
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
			if t := k.targets[slot]; t != 0 && t == targets[i] {
				c.TargetCorrect++
			}
		}
		states[pat] = delta[uint32(s)<<1|o]
		touched[pat>>6] |= 1 << (pat & 63)
		if h&freshBit != 0 {
			h = o * histMask
		} else {
			h = (h<<1 | o) & histMask
		}
		*hp = h
		if slot >= 0 {
			k.preds[slot] = predMask>>states[h]&1 != 0
			if taken {
				k.targets[slot] = targets[i]
			}
		}
	}
	k.sinceCS = sinceCS
	return i - start, err
}
