package fastpath

// The hot loops. Each run* loop walks a stretch of a plan's
// conditional-branch columns with the predict→verify→update step fused
// into straight-line array code: the plan has already decoded the
// events and counted everything that does not depend on the predictor,
// so per branch a loop does its predictor step, stores one mispredict
// bit and keeps its target counters. runSegments cuts a replay into the
// stretches between context switches and cancellation polls. The
// flatloop analyzer in cmd/brlint enforces that no interface method
// other than context.Context cancellation polling is called from these
// functions. Specialized loops cover the paper's three implementations
// (GAg, PAg, PAp on the practical BHT); runGeneric covers the taxonomy
// extensions, the Ideal table and the BTB designs with the same flat
// state, trading a few predictable branches for generality.
//
// Mispredict bits: a loop accumulates the bits of one 64-branch word in
// a register and stores the word when it fills or the stretch ends, so
// a stretch that starts mid-word first reloads the bits stored before.

import (
	"context"

	"twolevel/internal/flat"
)

// runSerial resolves view v's branches with the kernel's serial loop.
func (k *Kernel) runSerial(p *Plan, v *view, miss []uint64) (int, error) {
	seg := func(j0, j1 int) {
		switch k.loop {
		case loopStatic:
			k.runStatic(p, miss, j0, j1)
		case loopGAg:
			k.runGAg(p, miss, j0, j1)
		case loopPAgCache:
			k.runPAgCache(p, miss, j0, j1)
		case loopPApCache:
			k.runPApCache(p, miss, j0, j1)
		default:
			k.runGeneric(p, miss, j0, j1)
		}
	}
	flush := func() {
		if k.st != nil {
			k.st.Flush()
		}
	}
	return runSegments(p, v, 0, v.conds, k.cfg.Context, seg, flush)
}

// runSegments drives branches [j0, j1) of view v: it runs seg over each
// stretch between the view's context switches (calling flush at each)
// and, when ctx is non-nil, the plan's cancellation polls. It returns
// the branch index it stopped at: j1, or the poll where ctx reported an
// error. The switches that precede branch j1 are applied only when j1
// completes the view; otherwise they belong to whatever resumes there.
func runSegments(p *Plan, v *view, j0, j1 int, ctx context.Context, seg func(j0, j1 int), flush func()) (int, error) {
	sw, polls := v.switches, p.polls
	for len(sw) > 0 && int(sw[0]) < j0 {
		sw = sw[1:]
	}
	for len(polls) > 0 && int(polls[0]) < j0 {
		polls = polls[1:]
	}
	j := j0
	for {
		if j == j1 {
			for ; j1 == v.conds && len(sw) > 0; sw = sw[1:] {
				flush()
			}
			return j, nil
		}
		for ; ctx != nil && len(polls) > 0 && int(polls[0]) == j; polls = polls[1:] {
			if err := ctx.Err(); err != nil {
				return j, err
			}
		}
		for ; len(sw) > 0 && int(sw[0]) == j; sw = sw[1:] {
			flush()
		}
		next := j1
		if len(sw) > 0 && int(sw[0]) < next {
			next = int(sw[0])
		}
		if ctx != nil && len(polls) > 0 && int(polls[0]) < next {
			next = int(polls[0])
		}
		seg(j, next)
		j = next
	}
}

// runStatic resolves the static schemes: AlwaysTaken, BTFN and
// Profiling, whose per-branch directions are fixed before the run.
func (k *Kernel) runStatic(p *Plan, miss []uint64, j0, j1 int) {
	btfn, prof := k.kind == kindBTFN, k.prof
	pcs, targets, outs := p.pcs, p.targets, p.outs
	w := miss[j0>>6]
	for j := j0; j < j1; j++ {
		pred := uint32(1)
		if btfn {
			pred = b2u(targets[j] < pcs[j])
		} else if prof != nil {
			pred = b2u(prof.Direction(pcs[j]))
		}
		w |= uint64(pred^uint32(outs[j])) << (j & 63)
		if j&63 == 63 {
			miss[j>>6] = w
			w = 0
		}
	}
	if j1&63 != 0 {
		miss[j1>>6] = w
	}
}

// runGAg resolves the global/global variations (GAg, GSg presets): one
// shared history register, one shared pattern table — the entire
// predictor state is a uint32 and two slices.
func (k *Kernel) runGAg(p *Plan, miss []uint64, j0, j1 int) {
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	ghr := st.GHR
	outs := p.outs
	w := miss[j0>>6]
	for j := j0; j < j1; j++ {
		o := uint32(outs[j])
		pat := ghr & histMask
		s := states[pat]
		w |= uint64(uint32(predMask>>(s&63)&1)^o) << (j & 63)
		if j&63 == 63 {
			miss[j>>6] = w
			w = 0
		}
		states[pat] = delta[uint32(s)<<1|o]
		touch(touched, pat)
		ghr = flat.Shift(ghr, o, histMask)
	}
	if j1&63 != 0 {
		miss[j1>>6] = w
	}
	st.GHR = ghr
}

// runPAgCache resolves PAg/PSg on the practical BHT: per-address history
// registers in the practical BHT, one global pattern table.
func (k *Kernel) runPAgCache(p *Plan, miss []uint64, j0, j1 int) {
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	states, touched := st.GStates, st.GTouched
	hists, preds, tgts := st.Hists, st.Preds, st.Targets
	pcs, targets, outs := p.pcs, p.targets, p.outs
	var tp, tc uint64
	w := miss[j0>>6]
	for j := j0; j < j1; j++ {
		o := uint32(outs[j])
		slot := st.LookupCache(&st.LookupCounts, pcs[j])
		h := hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := uint32(predMask >> (s & 63) & 1)
		w |= uint64(pred^o) << (j & 63)
		if j&63 == 63 {
			miss[j>>6] = w
			w = 0
		}
		t, nt := tgts[slot], targets[j]
		both := pred & o
		tp += uint64(both)
		tc += uint64(both & b2u(t != 0) & b2u(t == nt))
		tgts[slot] = pick(o, nt, t)
		states[pat] = delta[uint32(s)<<1|o]
		touch(touched, pat)
		h = flat.Shift(h, o, histMask)
		hists[slot] = h
		preds[slot] = predMask>>(states[h]&63)&1 != 0
	}
	if j1&63 != 0 {
		miss[j1>>6] = w
	}
	k.c.TargetPredictions += tp
	k.c.TargetCorrect += tc
}

// runPApCache resolves PAp on the practical BHT: per-address history and
// a per-slot pattern table, both bound to the practical BHT's slots.
func (k *Kernel) runPApCache(p *Plan, miss []uint64, j0, j1 int) {
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	hists, preds, tgts := st.Hists, st.Preds, st.Targets
	pcs, targets, outs := p.pcs, p.targets, p.outs
	var tp, tc uint64
	w := miss[j0>>6]
	for j := j0; j < j1; j++ {
		o := uint32(outs[j])
		slot := st.LookupCache(&st.LookupCounts, pcs[j])
		states := st.PHTStates[slot]
		h := hists[slot]
		pat := h & histMask
		s := states[pat]
		pred := uint32(predMask >> (s & 63) & 1)
		w |= uint64(pred^o) << (j & 63)
		if j&63 == 63 {
			miss[j>>6] = w
			w = 0
		}
		t, nt := tgts[slot], targets[j]
		both := pred & o
		tp += uint64(both)
		tc += uint64(both & b2u(t != 0) & b2u(t == nt))
		tgts[slot] = pick(o, nt, t)
		states[pat] = delta[uint32(s)<<1|o]
		touch(st.PHTTouched[slot], pat)
		h = flat.Shift(h, o, histMask)
		hists[slot] = h
		preds[slot] = predMask>>(states[h]&63)&1 != 0
	}
	if j1&63 != 0 {
		miss[j1>>6] = w
	}
	k.c.TargetPredictions += tp
	k.c.TargetCorrect += tc
}

// runGeneric resolves every remaining flattened variation — the taxonomy
// extensions (GAp/GAs/PAs/SAg/SAs/SAp) and any variation on the Ideal
// BHT — resolving the history and pattern levels per branch from the
// same flat state the specialized loops use. It also serves the Branch
// Target Buffer designs, whose one level is the practical table: a hit
// makes the entry its set's most recently used, a miss predicts by the
// miss policy and allocates only when TrainBTB resolves the branch.
func (k *Kernel) runGeneric(p *Plan, miss []uint64, j0, j1 int) {
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	hasStore := st.BHT != flat.NoBHT
	useCache := st.BHT == flat.CacheBHT
	btb := k.kind == kindBTB
	pcs, targets, outs := p.pcs, p.targets, p.outs
	var tp, tc uint64
	w := miss[j0>>6]
	for j := j0; j < j1; j++ {
		o := uint32(outs[j])
		pc, nt := pcs[j], targets[j]
		var pred uint32
		if btb {
			slot, taken := st.LookupBTB(&st.LookupCounts, pc, nt)
			pred = b2u(taken)
			if slot >= 0 {
				t := st.Targets[slot]
				both := pred & o
				tp += uint64(both)
				tc += uint64(both & b2u(t != 0) & b2u(t == nt))
			} else {
				tp += uint64(pred & o)
			}
			st.TrainBTB(slot, pc, o, nt)
		} else {
			slot := -1
			if hasStore {
				if useCache {
					slot = st.LookupCache(&st.LookupCounts, pc)
				} else {
					slot = st.LookupIdeal(&st.LookupCounts, pc)
				}
			}
			hp := st.History(pc, slot)
			states, touched := st.Tables(pc, slot)
			h := *hp
			pat := h & histMask
			s := states[pat]
			pred = uint32(predMask >> (s & 63) & 1)
			states[pat] = delta[uint32(s)<<1|o]
			touch(touched, pat)
			h = flat.Shift(h, o, histMask)
			*hp = h
			if slot >= 0 {
				t := st.Targets[slot]
				both := pred & o
				tp += uint64(both)
				tc += uint64(both & b2u(t != 0) & b2u(t == nt))
				st.Targets[slot] = pick(o, nt, t)
				st.Preds[slot] = predMask>>(states[h]&63)&1 != 0
			}
		}
		w |= uint64(pred^o) << (j & 63)
		if j&63 == 63 {
			miss[j>>6] = w
			w = 0
		}
	}
	if j1&63 != 0 {
		miss[j1>>6] = w
	}
	k.c.TargetPredictions += tp
	k.c.TargetCorrect += tc
}

// b2u converts a bool to a 0/1 bit without a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// pick returns a when bit o is 1 and b when it is 0, without a branch.
func pick(o, a, b uint32) uint32 {
	m := -o
	return a&m | b&^m
}

// touch marks pattern pat in a touched bitset. It stores only when the
// bit is clear, so a loop that keeps revisiting a pattern does not chain
// each iteration's load of the word to the previous iteration's store.
func touch(touched []uint64, pat uint32) {
	if bit := uint64(1) << (pat & 63); touched[pat>>6]&bit == 0 {
		touched[pat>>6] |= bit
	}
}
