package fastpath

// Run telemetry: a Tap folds the interval accuracy series and the per-PC
// mispredict profile out of a replay's mispredict bitset, one bit per
// resolved conditional branch. A kernel replay hands the Tap its plan —
// whose columns hold every branch's PC and outcome — and the bitset its
// loops stored; the loops themselves do no telemetry work at all. The
// interpretive runner feeds the same bitset through the exported Resolve
// and Switch, plus a small log of PCs and outcomes the Tap owns, so both
// replay engines share one implementation. Nothing is folded until
// Telemetry is called: the series is a popcount per interval, the
// profile a walk over the set bits only, so a profile costs work per
// misprediction, not per branch.

import (
	"container/heap"
	"math/bits"

	"twolevel/internal/telemetry"
)

// Tap is one replay's telemetry accumulator.
type Tap struct {
	every  uint64 // interval size in resolved branches (0 = no series)
	warmup uint64 // resolutions attributed to warmup (0 = no split)
	topk   int    // per-PC profile rows to report (0 = no profile)

	recordSwitches bool
	switches       []uint64 // resolution index at each context switch

	// log holds the resolved branches' PCs and outcomes: a kernel's plan
	// (borrowed), or the Tap's own, which Resolve appends to.
	log  *Plan
	own  bool
	miss []uint64 // mispredict bit per resolved branch
	n    int      // resolved conditional branches
}

// NewTap returns the accumulator cfg's Interval, TopPCs and Warmup ask
// for, or nil when telemetry is off entirely. Context switches are
// recorded only alongside an interval series.
func NewTap(cfg Config) *Tap {
	if cfg.Interval == 0 && cfg.TopPCs <= 0 {
		return nil
	}
	return &Tap{
		every:          cfg.Interval,
		warmup:         cfg.Warmup,
		topk:           cfg.TopPCs,
		recordSwitches: cfg.Interval > 0,
	}
}

// Resolve records one resolved conditional branch.
func (t *Tap) Resolve(pc uint32, taken, correct bool) {
	if t == nil {
		return
	}
	if t.n&63 == 0 {
		t.miss = append(t.miss, 0)
	}
	if !correct {
		t.miss[t.n>>6] |= 1 << (t.n & 63)
	}
	if t.topk > 0 {
		t.ownLog().push(pc, taken)
	}
	t.n++
}

// Switch records the resolution index of a context switch.
func (t *Tap) Switch() {
	if t.recordSwitches {
		t.switches = append(t.switches, uint64(t.n))
	}
}

// ownLog returns the Tap's own log, first copying a borrowed plan's
// resolved branches into it.
func (t *Tap) ownLog() *Plan {
	if t.own {
		return t.log
	}
	borrowed := t.log
	t.log, t.own = &Plan{}, true
	if borrowed != nil {
		for j := 0; j < t.n; j++ {
			t.log.push(borrowed.pcs[j], borrowed.outs[j] != 0)
		}
	}
	return t.log
}

// bind records a kernel replay that resolved branches [0, n) of plan p
// with mispredict bitset miss, after the context switches at the given
// branch indices. A first replay is borrowed as is; a later one (a
// kernel resumed over another plan) is appended branch by branch.
func (t *Tap) bind(p *Plan, miss []uint64, n int, switches []int32) {
	if t == nil {
		return
	}
	if t.n == 0 && len(t.switches) == 0 && !t.own {
		t.log, t.miss, t.n = p, miss, n
		if t.recordSwitches {
			for _, s := range switches {
				t.switches = append(t.switches, uint64(s))
			}
		}
		return
	}
	t.miss = t.miss[:(t.n+63)/64]
	for j := 0; j < n; j++ {
		for ; len(switches) > 0 && int(switches[0]) == j; switches = switches[1:] {
			t.Switch()
		}
		t.Resolve(p.pcs[j], p.outs[j] != 0, miss[j>>6]>>(j&63)&1 == 0)
	}
	for range switches {
		t.Switch()
	}
}

// Tap returns the kernel's telemetry accumulator (nil when off).
func (k *Kernel) Tap() *Tap { return k.tap }

// Telemetry materialises the tap's outputs: the interval accuracy series
// (bit-identical to telemetry.IntervalSeries over the same run), the
// context-switch resolution indices, and the top-K per-PC mispredict
// profile ordered like telemetry.HotBranches.Report (mispredicts
// descending, PC ascending). Each is nil when its mode was off.
func (t *Tap) Telemetry() ([]telemetry.Sample, []uint64, []telemetry.PCStats) {
	if t == nil {
		return nil, nil, nil
	}
	var profile []telemetry.PCStats
	if t.topk > 0 {
		profile = foldProfile(t.log, t.miss, t.n, t.topk, t.warmup)
	}
	return foldSamples(t.miss, t.n, t.every), t.switches, profile
}

// foldSamples cuts branches [0, n) into intervals of every and counts
// each interval's mispredicts in bitset miss by popcount.
func foldSamples(miss []uint64, n int, every uint64) []telemetry.Sample {
	if every == 0 || n == 0 {
		return nil
	}
	samples := make([]telemetry.Sample, (uint64(n)-1)/every+1)
	for i := range samples {
		lo := uint64(i) * every
		hi := lo + min(every, uint64(n)-lo)
		preds := hi - lo
		correct := preds - onesIn(miss, int(lo), int(hi))
		sm := &samples[i]
		sm.Branches, sm.Predictions, sm.Correct = hi, preds, correct
		sm.Accuracy = float64(correct) / float64(preds)
	}
	return samples
}

// onesIn counts the set bits of set in bit range [lo, hi).
func onesIn(set []uint64, lo, hi int) uint64 {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - (hi-1)&63)
	if first == last {
		return uint64(bits.OnesCount64(set[first] & loMask & hiMask))
	}
	n := bits.OnesCount64(set[first]&loMask) + bits.OnesCount64(set[last]&hiMask)
	for _, w := range set[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// pcTap is one site's row of the per-PC profile: its mispredicts and the
// warmup-miss split the streaming verdict classifier consumes.
type pcTap struct {
	miss, warmupMiss uint64
	pc               uint32
}

// profileRows returns one profile row per site that branches [0, n) of
// log reach, indexed by site id, with the mispredicts of bitset miss
// counted by walking only its set bits.
func profileRows(log *Plan, miss []uint64, n int, warmup uint64) []pcTap {
	if log == nil {
		return nil
	}
	rows := make([]pcTap, log.seen(n))
	for i := range rows {
		rows[i].pc = log.sites[i]
	}
	foldMisses(rows, log.ids, miss[:(n+63)/64], warmup)
	return rows
}

// foldMisses adds each mispredicted branch of bitset miss to its site's
// row.
func foldMisses(rows []pcTap, ids []int32, miss []uint64, warmup uint64) {
	for wi, w := range miss {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 | bits.TrailingZeros64(w)
			r := &rows[ids[j]]
			r.miss++
			if uint64(j) < warmup {
				r.warmupMiss++
			}
		}
	}
}

// foldProfile ranks the rows and materialises the topk reported ones,
// taking their executions and taken counts from the log's per-site
// profile.
func foldProfile(log *Plan, miss []uint64, n, topk int, warmup uint64) []telemetry.PCStats {
	rows := profileRows(log, miss, n, warmup)
	var misses uint64
	for i := range rows {
		misses += rows[i].miss
	}
	order := top(rows, topk)
	profile := make([]telemetry.PCStats, len(order))
	if len(order) == 0 {
		return profile
	}
	sc := log.siteCounts(n)
	for i, id := range order {
		r, row := &rows[id], &profile[i]
		row.PC, row.Mispredicts, row.WarmupMisses = r.pc, r.miss, r.warmupMiss
		row.Executions, row.Taken = sc.exec[id], sc.taken[id]
		if row.Executions > 0 {
			row.TakenRate = float64(row.Taken) / float64(row.Executions)
		}
		if misses > 0 {
			row.MissShare = float64(r.miss) / float64(misses)
		}
	}
	return profile
}

// before reports whether row a precedes row b in the profile order:
// mispredicts descending, then PC ascending. Rows hold distinct PCs, so
// the order is total.
func before(a, b *pcTap) bool {
	if a.miss != b.miss {
		return a.miss > b.miss
	}
	return a.pc < b.pc
}

// top returns the indices of the first k rows in the profile order, in
// that order. It is a bounded selection: a heap keeps the best k rows
// seen so far, so ranking n rows costs O(n log k) rather than a sort of
// all n.
func top(rows []pcTap, k int) []int32 {
	r := &ranking{rows: rows, kept: make([]int32, 0, min(k, len(rows)))}
	for i := range rows {
		switch {
		case r.Len() < k:
			heap.Push(r, int32(i))
		case before(&rows[i], &rows[r.kept[0]]):
			r.kept[0] = int32(i)
			heap.Fix(r, 0)
		}
	}
	out := make([]int32, r.Len())
	for j := len(out) - 1; j >= 0; j-- {
		out[j] = heap.Pop(r).(int32)
	}
	return out
}

// ranking is a heap of row indices whose root is the kept row that comes
// last in the profile order.
type ranking struct {
	rows []pcTap
	kept []int32
}

func (r *ranking) Len() int { return len(r.kept) }
func (r *ranking) Less(i, j int) bool {
	return before(&r.rows[r.kept[j]], &r.rows[r.kept[i]])
}
func (r *ranking) Swap(i, j int) { r.kept[i], r.kept[j] = r.kept[j], r.kept[i] }
func (r *ranking) Push(x any)    { r.kept = append(r.kept, x.(int32)) }
func (r *ranking) Pop() any {
	x := r.kept[len(r.kept)-1]
	r.kept = r.kept[:len(r.kept)-1]
	return x
}
