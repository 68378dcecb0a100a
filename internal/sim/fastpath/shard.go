package fastpath

// PC-partitioned parallel replay. For variations whose first AND second
// levels are both non-global (PAp, PAs, SAs, SAp on the practical BHT),
// every mutable structure is indexed by pc>>2 modulo a power-of-two set
// count, so partitioning branches by the low bits of pc>>2 gives each
// worker a disjoint slice of BHT sets, history registers and pattern
// tables: workers share the predictor's tables but write disjoint indices.
// A set's LRU ranks change only when one of its own branches is looked
// up, so each set's ranks end as the serial run leaves them.
// Every worker walks the plan's whole branch column, flushing its own
// partition at every context switch, and resolves only its own
// partition's branches into a private mispredict bitset. The plan
// already holds every predictor-independent counter, so the merge is an
// OR of the bitsets plus sums of the target and lookup counters —
// deterministic regardless of scheduling — and equals the serial
// kernel's result bit for bit.

import (
	"context"
	"sync"

	"twolevel/internal/flat"
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
// shared — the lookup counters, the mispredict bitset, the target
// counters — lives here.
type shardWorker struct {
	flat.LookupCounts
	miss   []uint64
	tp, tc uint64 // target predictions and correct targets
	// stop is the branch index the worker halted at: the view's end
	// after a full pass, the poll where cancellation was observed
	// otherwise. Every worker polls at the plan's poll indices, so the
	// catch-up phase can align every worker to the furthest stop.
	stop int
	err  error
}

// runSharded resolves view v with shardCount workers and merges their
// bitsets into miss. A cancelled pass still yields a well-defined
// prefix: workers observe cancellation at poll indices, and the catch-up
// phase below advances every worker to the furthest stop, so the
// resolved count and the predictor's state describe the exact prefix of
// branches [0, stop) — an interpretive continuation from there is
// bit-identical to a run that was never sharded.
func (k *Kernel) runSharded(p *Plan, v *view, miss []uint64) (int, error) {
	g := k.shardCount()
	workers := make([]shardWorker, g)
	work := func(w, j0, j1 int, ctx context.Context) {
		sw := &workers[w]
		seg := func(j0, j1 int) { k.runShard(sw, uint32(w), uint32(g-1), p, j0, j1) }
		flush := func() { k.flushShard(uint32(w), uint32(g)) }
		sw.stop, sw.err = runSegments(p, v, j0, j1, ctx, seg, flush)
	}
	var wg sync.WaitGroup
	for w := range workers {
		workers[w].miss = miss
		if w > 0 {
			workers[w].miss = make([]uint64, len(miss)) //lint:allow hotalloc per-worker bitset: O(shards) setup, not per-event work
		}
		wg.Add(1)
		go func(w int) { //lint:allow hotalloc per-worker spawn: O(shards) setup, not per-event work
			defer wg.Done()
			work(w, 0, v.conds, k.cfg.Context)
		}(w)
	}
	wg.Wait()
	var err error
	stop := 0
	for w := range workers {
		stop = max(stop, workers[w].stop)
		if err == nil && workers[w].err != nil {
			err = workers[w].err
		}
	}
	if err != nil {
		// Catch-up: workers behind the furthest poll index resolve their
		// own partition (disjoint state, no polling) up to it. At most
		// one poll window of branches per worker, run serially.
		for w := range workers {
			if workers[w].stop < stop {
				work(w, workers[w].stop, stop, nil)
			}
		}
	}
	st := k.st
	for w := range workers {
		sw := &workers[w]
		if w > 0 {
			for i, x := range sw.miss {
				miss[i] |= x
			}
		}
		k.c.TargetPredictions += sw.tp
		k.c.TargetCorrect += sw.tc
		st.Lookups += sw.Lookups
		st.Misses += sw.Misses
	}
	return stop, err
}

// runShard is the per-worker loop: the generic flat branch step applied
// only to branches whose pc>>2 low bits select partition w, over branches
// [j0, j1) of the plan.
func (k *Kernel) runShard(sw *shardWorker, w, partMask uint32, p *Plan, j0, j1 int) {
	st := k.st
	histMask := st.HistMask
	delta, predMask := st.Delta, st.PredMask
	useCache := st.BHT == flat.CacheBHT
	pcs, targets, outs := p.pcs, p.targets, p.outs
	miss := sw.miss
	var tp, tc uint64
	wd := miss[j0>>6]
	for j := j0; j < j1; j++ {
		if pc := pcs[j]; pc>>2&partMask == w {
			o := uint32(outs[j])
			slot := -1
			if useCache {
				slot = st.LookupCache(&sw.LookupCounts, pc)
			}
			hp := st.History(pc, slot)
			states, touched := st.Tables(pc, slot)
			h := *hp
			pat := h & histMask
			s := states[pat]
			pred := uint32(predMask >> s & 1)
			wd |= uint64(pred^o) << (j & 63)
			if useCache && pred&o != 0 {
				tp++
				if t := st.Targets[slot]; t != 0 && t == targets[j] {
					tc++
				}
			}
			states[pat] = delta[uint32(s)<<1|o]
			touched[pat>>6] |= 1 << (pat & 63)
			h = flat.Shift(h, o, histMask)
			*hp = h
			if slot >= 0 {
				st.Preds[slot] = predMask>>states[h]&1 != 0
				if o != 0 {
					st.Targets[slot] = targets[j]
				}
			}
		}
		if j&63 == 63 {
			miss[j>>6] = wd
			wd = 0
		}
	}
	if j1&63 != 0 {
		miss[j1>>6] = wd
	}
	sw.tp += tp
	sw.tc += tc
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
