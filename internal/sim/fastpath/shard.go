package fastpath

// PC-partitioned parallel replay. For variations whose first AND second
// levels are both non-global (PAp, PAs, SAs, SAp on the practical BHT),
// every mutable structure is indexed by pc>>2 modulo a power-of-two set
// count, so partitioning branches by the low bits of pc>>2 gives each
// worker a disjoint slice of BHT sets, history registers and pattern
// tables: workers share the predictor's tables but write disjoint indices.
// Every worker walks the whole event stream (the context-switch quantum
// is timed by the global instruction count), predicting only its own
// partition; worker 0 additionally owns the global counters
// (instructions, traps, classes, context switches). Counter merging is
// plain field addition — deterministic regardless of scheduling — and
// the merged Counters equal the serial kernel's bit for bit.

import (
	"sync"

	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// shardable reports whether PC partitioning preserves semantics: both
// levels non-global (no cross-partition state) and no Ideal table (whose
// directory and slot arrays grow on insert, so they cannot be shared
// without synchronisation). Only two-level predictors shard; a BTB
// replays serially.
func (k *Kernel) shardable() bool {
	st := k.st
	return k.kind == kindTwoLevel &&
		st.HistoryAxis != flat.Global && st.PatternAxis != flat.Global &&
		st.BHT != flat.IdealBHT
}

// shardCount resolves the partition count: the largest power of two not
// exceeding the requested shards or any per-PC structure's set count
// (so branches sharing a set always share a partition).
func (k *Kernel) shardCount() int {
	n := k.cfg.Shards
	if n < 2 {
		return 1
	}
	lim := func(v int) {
		if v < n {
			n = v
		}
	}
	st := k.st
	if st.BHT == flat.CacheBHT {
		lim(int(st.SetMask) + 1)
	}
	if st.HistoryAxis == flat.PerSet {
		lim(int(st.HistSetMask) + 1)
	}
	if st.PatternAxis == flat.PerSet {
		lim(int(st.PatSetMask) + 1)
	}
	g := 1
	for g*2 <= n {
		g *= 2
	}
	return g
}

// shardWorker is one partition's private replay state. The predictor's
// tables are shared (disjoint index sets); everything that must not be
// shared — the LRU clock, the counters, the context-switch phase —
// lives here.
type shardWorker struct {
	flat.Clock
	c       Counters
	sinceCS uint64
	tap     *Tap // private telemetry fork; nil when telemetry is off
	// stop is the event index the worker halted at: end after a full
	// pass, the aligned poll index where cancellation was observed
	// otherwise. Polls fire at identical indices in every worker (the
	// poll counter starts at zero at start for all of them), so stop
	// values from a cancelled pass lie on a common lattice and the
	// catch-up phase can align every worker to the furthest one.
	stop int
	err  error
}

// runSharded replays [start, end) with shardCount workers and merges.
// A cancelled pass still yields a well-defined prefix: workers observe
// cancellation at aligned poll indices, and the catch-up phase below
// advances every worker to the furthest stop, so the consumed count and
// the predictor's state describe the exact prefix [start, stop) — an
// interpretive continuation from there is bit-identical to a run that
// was never sharded.
func (k *Kernel) runSharded(instrs, pcs, targets []uint32, meta []uint8, start, end int) (int, error) {
	g := k.shardCount()
	workers := make([]shardWorker, g)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		if k.tap != nil {
			workers[w].tap = k.tap.fork(w)
		}
		wg.Add(1)
		go func(w int) { //lint:allow hotalloc per-worker spawn: O(shards) setup, not per-event work
			defer wg.Done()
			workers[w].Now = k.st.Now
			k.runShard(&workers[w], uint32(w), uint32(g-1), instrs, pcs, targets, meta, start, end, k.sinceCS, true)
		}(w)
	}
	wg.Wait()
	var err error
	stop := start
	for w := range workers {
		if workers[w].stop > stop {
			stop = workers[w].stop
		}
		if err == nil && workers[w].err != nil {
			err = workers[w].err
		}
	}
	if err != nil {
		// Catch-up: workers behind the furthest poll index replay their
		// own partition (disjoint state, no polling) up to it. At most
		// one poll window of events per worker, run serially.
		for w := range workers {
			if workers[w].stop < stop {
				k.runShard(&workers[w], uint32(w), uint32(g-1), instrs, pcs, targets, meta, workers[w].stop, stop, workers[w].sinceCS, false)
			}
		}
	}
	st := k.st
	maxClock := st.Now
	for w := range workers {
		k.c.merge(workers[w].c)
		st.Lookups += workers[w].Lookups
		st.Misses += workers[w].Misses
		if workers[w].Now > maxClock {
			maxClock = workers[w].Now
		}
		if k.tap != nil {
			k.tap.absorb(workers[w].tap)
		}
	}
	st.Now = maxClock
	k.sinceCS = workers[0].sinceCS
	return stop - start, err
}

// runShard is the per-worker loop: the generic flat branch step applied
// only to branches whose pc>>2 low bits select partition w, with global
// accounting (instructions, traps, classes, context-switch count) owned
// by worker 0. startSinceCS seeds the context-switch phase (the pass
// start's value, or the worker's own on a catch-up resume); poll=false
// disables cancellation polling for the bounded catch-up leg. As in
// loops.go, a tap-free twin keeps the telemetry-off path free of
// per-event tap branches.
func (k *Kernel) runShard(sw *shardWorker, w, partMask uint32, instrs, pcs, targets []uint32, meta []uint8, start, end int, startSinceCS uint64, poll bool) {
	if sw.tap == nil {
		k.runShardPlain(sw, w, partMask, instrs, pcs, targets, meta, start, end, startSinceCS, poll)
		return
	}
	k.runShardTap(sw, w, partMask, instrs, pcs, targets, meta, start, end, startSinceCS, poll)
}

func (k *Kernel) runShardPlain(sw *shardWorker, w, partMask uint32, instrs, pcs, targets []uint32, meta []uint8, start, end int, startSinceCS uint64, poll bool) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	if !poll {
		ctx = nil
	}
	c := &sw.c
	st := k.st
	global := w == 0
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	useCache := st.BHT == flat.CacheBHT
	g := partMask + 1
	sinceCS := startSinceCS // all workers see the same instruction stream
	var sinceCheck uint32
	for i := start; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					sw.err = err
					sw.stop = i
					sw.sinceCS = sinceCS
					return
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		sinceCS += ins
		if global {
			c.Instructions += ins
		}
		if m&trace.MetaTrap != 0 {
			if global {
				c.Traps++
			}
			if cs {
				k.flushShard(w, g)
				if global {
					c.ContextSwitches++
				}
				sinceCS = 0
			}
			continue
		}
		if cs && sinceCS >= interval {
			k.flushShard(w, g)
			if global {
				c.ContextSwitches++
			}
			sinceCS = 0
		}
		cls := m >> trace.MetaClassShift
		if trace.Class(cls) != trace.Cond {
			if global {
				c.ByClass[cls]++
			}
			continue
		}
		taken := m&trace.MetaTaken != 0
		if global {
			c.ByClass[cls]++
			if taken {
				c.TakenCond++
			}
		}
		pc := pcs[i]
		if pc>>2&partMask != w {
			continue
		}
		var o uint32
		if taken {
			o = 1
		}
		slot := -1
		if useCache {
			slot = st.LookupCache(&sw.Clock, pc, flat.BranchTouches)
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
		if useCache && pred && taken {
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
	sw.stop = end
	sw.sinceCS = sinceCS
}

func (k *Kernel) runShardTap(sw *shardWorker, w, partMask uint32, instrs, pcs, targets []uint32, meta []uint8, start, end int, startSinceCS uint64, poll bool) {
	cs, interval := k.cfg.ContextSwitches, k.cfg.CSInterval
	ctx := k.cfg.Context
	if !poll {
		ctx = nil
	}
	c := &sw.c
	st := k.st
	tap := sw.tap
	global := w == 0
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	useCache := st.BHT == flat.CacheBHT
	g := partMask + 1
	sinceCS := startSinceCS // all workers see the same instruction stream
	var sinceCheck uint32
	for i := start; i < end; i++ {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= checkInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					sw.err = err
					sw.stop = i
					sw.sinceCS = sinceCS
					return
				}
			}
		}
		m := meta[i]
		ins := uint64(instrs[i])
		sinceCS += ins
		if global {
			c.Instructions += ins
		}
		if m&trace.MetaTrap != 0 {
			if global {
				c.Traps++
			}
			if cs {
				k.flushShard(w, g)
				if global {
					c.ContextSwitches++
				}
				sinceCS = 0
				if tap != nil {
					tap.Switch()
				}
			}
			continue
		}
		if cs && sinceCS >= interval {
			k.flushShard(w, g)
			if global {
				c.ContextSwitches++
			}
			sinceCS = 0
			if tap != nil {
				tap.Switch()
			}
		}
		cls := m >> trace.MetaClassShift
		if trace.Class(cls) != trace.Cond {
			if global {
				c.ByClass[cls]++
			}
			continue
		}
		taken := m&trace.MetaTaken != 0
		if global {
			c.ByClass[cls]++
			if taken {
				c.TakenCond++
			}
		}
		pc := pcs[i]
		if pc>>2&partMask != w {
			if tap != nil {
				tap.skip()
			}
			continue
		}
		var o uint32
		if taken {
			o = 1
		}
		slot := -1
		if useCache {
			slot = st.LookupCache(&sw.Clock, pc, flat.BranchTouches)
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
		if useCache && pred && taken {
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
	sw.stop = end
	sw.sinceCS = sinceCS
}

// flushShard invalidates the worker's partition of the BHT and
// reinitialises its history registers (context switch, §5.1.4).
func (k *Kernel) flushShard(w, g uint32) {
	st := k.st
	if st.BHT == flat.CacheBHT {
		sets := int(st.SetMask) + 1
		for set := int(w); set < sets; set += int(g) {
			clear(st.Valid[set*st.Assoc : (set+1)*st.Assoc])
		}
	}
	for i := int(w); i < len(st.SetHists); i += int(g) {
		st.SetHists[i] = st.ResetHist
	}
}
