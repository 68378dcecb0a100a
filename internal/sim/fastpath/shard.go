package fastpath

// Lanes and PC-partitioned parallel replay. A replay resolves its
// branches in lanes: a lane is partition part under mask, the branches
// whose pc>>2&mask is part, with its own mispredict bitset, target
// counters and lookup counters. A serial replay is one lane, partition
// 0 under mask 0, run with the kernel's loop shape on the calling
// goroutine.
//
// For variations whose first AND second levels are both non-global
// (PAp, PAs, SAs, SAp on the practical BHT), every mutable structure is
// indexed by pc>>2 modulo a power-of-two set count, so partitioning
// branches by the low bits of pc>>2 gives each lane a disjoint slice of
// BHT sets, history registers and pattern tables: lanes share the
// predictor's tables but write disjoint indices, and a sharded replay
// runs one lane of runGeneric per partition, each but lane 0 on a
// goroutine of its own. A set's LRU ranks change only when one of its
// own branches is looked up, so each set's ranks end as the serial run
// leaves them. Every lane walks the plan's whole branch column,
// flushing its own partition at every context switch. The plan already
// holds every predictor-independent counter, so settle's fold is an OR
// of the bitsets plus sums of the target and lookup counters —
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

// shardCount resolves the partition count: 1 unless the kernel is
// shardable, else the largest power of two not exceeding the requested
// shards or any per-PC structure's set count (so branches sharing a set
// always share a partition).
func (k *Kernel) shardCount() int {
	n := k.cfg.Shards
	if n < 2 || !k.shardable() {
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

// shardWorker is one lane's private replay state. The predictor's
// tables are shared (disjoint index sets); everything that must not be
// shared — the lookup counters, the mispredict bitset, the target
// counters — lives here until settle folds it.
type shardWorker struct {
	flat.LookupCounts
	miss       []uint64
	tp, tc     uint64 // target predictions and correct targets
	part, mask uint32 // the lane resolves branches with pc>>2&mask == part
	// stop is the branch index the lane halted at: the view's end after
	// a full pass, the poll where cancellation was observed otherwise.
	// Every lane polls at the plan's poll indices, so the catch-up phase
	// can align every lane to the furthest stop.
	stop int
	err  error
}

// runLanes resolves view v into miss with shardCount lanes: one with
// the kernel's loop shape, or several of runGeneric in parallel. Lane 0
// runs on the calling goroutine, every other lane on its own. A
// cancelled pass still yields a well-defined prefix: lanes observe
// cancellation at poll indices, and the catch-up phase below advances
// every lane to the furthest stop, so the resolved count and the
// predictor's state describe the exact prefix of branches [0, stop) —
// an interpretive continuation from there is bit-identical to a run
// that was never sharded.
func (k *Kernel) runLanes(p *Plan, v *view, miss []uint64) (int, error) {
	g := k.shardCount()
	shape := k.loop
	if g > 1 {
		shape = loopGeneric
	}
	lanes := make([]shardWorker, g)
	work := func(sw *shardWorker, j0, j1 int, ctx context.Context) {
		seg := func(j0, j1 int) {
			switch shape {
			case loopStatic:
				k.runStatic(sw, p, j0, j1)
			case loopGAg:
				k.runGAg(sw, p, j0, j1)
			case loopCache:
				k.runCache(sw, p, j0, j1)
			default:
				k.runGeneric(sw, p, j0, j1)
			}
		}
		flush := func() { k.flushLane(sw) }
		sw.stop, sw.err = runSegments(p, v, j0, j1, ctx, seg, flush)
	}
	var wg sync.WaitGroup
	for w := range lanes {
		sw := &lanes[w]
		sw.part, sw.mask, sw.miss = uint32(w), uint32(g-1), miss
		if w == 0 {
			continue // lane 0 runs on the calling goroutine, below
		}
		sw.miss = make([]uint64, len(miss)) //lint:allow hotalloc per-lane bitset: O(shards) setup, not per-event work
		wg.Add(1)
		go func() { //lint:allow hotalloc per-lane spawn: O(shards) setup, not per-event work
			defer wg.Done()
			work(sw, 0, v.conds, k.cfg.Context)
		}()
	}
	work(&lanes[0], 0, v.conds, k.cfg.Context)
	wg.Wait()
	var err error
	stop := 0
	for w := range lanes {
		stop = max(stop, lanes[w].stop)
		if err == nil && lanes[w].err != nil {
			err = lanes[w].err
		}
	}
	for w := range lanes {
		sw := &lanes[w]
		if sw.stop < stop {
			// Catch-up: a lane behind the furthest poll index resolves
			// its own partition (disjoint state, no polling) up to it. At
			// most one poll window of branches per lane, run serially.
			work(sw, sw.stop, stop, nil)
		}
		k.settle(sw, miss)
	}
	return stop, err
}

// settle folds one lane into the replay: its mispredict bits into miss
// (lane 0 resolves into miss itself), its target counters into the
// kernel's and its lookup counters into the predictor's state.
func (k *Kernel) settle(sw *shardWorker, miss []uint64) {
	if sw.part != 0 {
		for i, x := range sw.miss {
			miss[i] |= x
		}
	}
	k.c.TargetPredictions += sw.tp
	k.c.TargetCorrect += sw.tc
	if st := k.st; st != nil {
		st.Lookups += sw.Lookups
		st.Misses += sw.Misses
	}
}

// flushLane applies a context switch (§5.1.4) to the lane's partition:
// it invalidates the partition's BHT sets and reinitialises its history
// registers. A lane under mask 0 owns the whole predictor and flushes
// all of it.
func (k *Kernel) flushLane(sw *shardWorker) {
	st := k.st
	if st == nil {
		return
	}
	if sw.mask == 0 {
		st.Flush()
		return
	}
	w, g := int(sw.part), int(sw.mask)+1
	if st.BHT == flat.CacheBHT {
		sets := int(st.SetMask) + 1
		for set := w; set < sets; set += g {
			clear(st.Valid[set*st.Assoc : (set+1)*st.Assoc])
		}
	}
	for i := w; i < len(st.SetHists); i += g {
		st.SetHists[i] = st.ResetHist
	}
}
