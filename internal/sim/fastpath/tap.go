package fastpath

// Run telemetry: a Tap accumulates the interval accuracy series and the
// per-PC mispredict profile. The flat loops feed it directly, so a run
// that wants live telemetry stays on the kernel; the interpretive runner
// feeds the same accumulator through the exported Resolve and Switch, so
// both replay engines share one implementation. The accumulators are
// plain per-shard arrays behind a flat.PCIndex directory, merged
// deterministically after a sharded pass; every hot-loop call site is
// nil-guarded (one predictable branch when telemetry is off — the same
// zero-cost-when-disabled contract Observer carries, enforced by the
// obsnilguard analyzer).

import (
	"container/heap"

	"twolevel/internal/flat"
	"twolevel/internal/telemetry"
)

// Tap is one replay's telemetry accumulator. In a sharded run every
// worker owns a private fork; each fork counts every resolved conditional
// branch (the global resolution index times interval bins and the warmup
// split) but bins only its own partition's predictions, so absorbing the
// forks reproduces the serial series bit for bit.
type Tap struct {
	every  uint64 // interval size in resolved branches (0 = no series)
	warmup uint64 // resolutions attributed to warmup (0 = no split)
	topk   int    // per-PC profile rows to report (0 = no profile)

	total   uint64   // resolved conditional branches seen so far
	edge    uint64   // resolution index where interval bin ends
	bin     int      // interval index of resolutions in [edge-every, edge)
	preds   []uint64 // per-interval prediction counts
	correct []uint64 // per-interval correct counts

	recordSwitches bool
	switches       []uint64 // resolution index at each context switch

	pcIdx flat.PCIndex // PC → index into pcs (topk > 0 only)
	pcs   pcTaps       // per-PC counters at pcIdx's dense indices
}

// pcTap mirrors telemetry.HotBranches' per-PC counters plus the
// warmup-miss split the streaming verdict classifier consumes.
type pcTap struct {
	exec, taken, miss, warmupMiss uint64
	pc                            uint32
}

// pcChunk is the pcTaps chunk length (5 KiB of counters).
const pcChunk = 128

// pcTaps is a dense per-PC counter array that grows one fixed-size chunk
// at a time. Growth never copies, so a tapped run allocates about one
// row per distinct PC; a doubling slice would leave up to its final size
// again behind as garbage.
type pcTaps struct {
	chunks []*[pcChunk]pcTap
	n      int
}

// at returns row i (0 <= i < n).
func (p *pcTaps) at(i int) *pcTap {
	return &p.chunks[uint(i)/pcChunk][uint(i)%pcChunk]
}

// push appends a zeroed row for pc at index n.
func (p *pcTaps) push(pc uint32) {
	if p.n%pcChunk == 0 {
		p.chunks = append(p.chunks, new([pcChunk]pcTap)) //lint:allow hotalloc one chunk per pcChunk distinct PCs, not per event
	}
	p.at(p.n).pc = pc
	p.n++
}

// before reports whether row i precedes row j in the profile order:
// mispredicts descending, then PC ascending. Rows hold distinct PCs, so
// the order is total.
func (p *pcTaps) before(i, j int32) bool {
	a, b := p.at(int(i)), p.at(int(j))
	if a.miss != b.miss {
		return a.miss > b.miss
	}
	return a.pc < b.pc
}

// top returns the indices of the first k rows in the profile order, in
// that order. It is a bounded selection: a heap keeps the best k rows
// seen so far, so ranking n rows costs O(n log k) rather than a sort of
// all n.
func (p *pcTaps) top(k int) []int32 {
	r := &ranking{p: p, rows: make([]int32, 0, min(k, p.n))}
	for i := int32(0); int(i) < p.n; i++ {
		switch {
		case r.Len() < k:
			heap.Push(r, i)
		case p.before(i, r.rows[0]):
			r.rows[0] = i
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
	p    *pcTaps
	rows []int32
}

func (r *ranking) Len() int           { return len(r.rows) }
func (r *ranking) Less(i, j int) bool { return r.p.before(r.rows[j], r.rows[i]) }
func (r *ranking) Swap(i, j int)      { r.rows[i], r.rows[j] = r.rows[j], r.rows[i] }
func (r *ranking) Push(x any)         { r.rows = append(r.rows, x.(int32)) }
func (r *ranking) Pop() any {
	x := r.rows[len(r.rows)-1]
	r.rows = r.rows[:len(r.rows)-1]
	return x
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

// fork returns worker w's private accumulator for a sharded run. Only
// worker 0 records context switches (it owns the global accounting).
func (t *Tap) fork(w int) *Tap {
	return &Tap{ //lint:allow hotalloc per-worker fork: O(shards) setup, not per-event work
		every:          t.every,
		warmup:         t.warmup,
		topk:           t.topk,
		recordSwitches: t.recordSwitches && w == 0,
	}
}

// Resolve folds one resolved conditional branch owned by this tap. The
// interval bin is cached: the division runs only when the resolution
// index reaches the bin's edge, which also re-lands a sharded fork that
// skip()ped across whole bins in total/every.
func (t *Tap) Resolve(pc uint32, taken, correct bool) {
	if t.every > 0 {
		if t.total >= t.edge {
			j := t.total / t.every
			t.bin, t.edge = int(j), (j+1)*t.every
			for len(t.preds) <= t.bin {
				t.preds = append(t.preds, 0)     //lint:allow hotalloc amortised interval-array growth: one extension per interval, not per event
				t.correct = append(t.correct, 0) //lint:allow hotalloc amortised interval-array growth: one extension per interval, not per event
			}
		}
		t.preds[t.bin]++
		if correct {
			t.correct[t.bin]++
		}
	}
	if t.topk > 0 {
		i, added := t.pcIdx.Add(pc)
		if added {
			t.pcs.push(pc)
		}
		st := t.pcs.at(int(i))
		st.exec++
		if taken {
			st.taken++
		}
		if !correct {
			st.miss++
			if t.warmup > 0 && t.total < t.warmup {
				st.warmupMiss++
			}
		}
	}
	t.total++
}

// skip advances the global resolution index past a conditional branch
// another partition owns (sharded runs only).
func (t *Tap) skip() {
	t.total++
}

// Switch records the resolution index of a context switch.
func (t *Tap) Switch() {
	if t.recordSwitches {
		t.switches = append(t.switches, t.total) //lint:allow hotalloc one append per context switch, not per event
	}
}

// absorb merges worker fork o into t: elementwise interval sums, switch
// indices from the recording worker, and a union of the (disjoint,
// PC-partitioned) profiles. Deterministic regardless of scheduling.
func (t *Tap) absorb(o *Tap) {
	if o.total > t.total {
		t.total = o.total
	}
	for len(t.preds) < len(o.preds) {
		t.preds = append(t.preds, 0)     //lint:allow hotalloc per-worker merge after the sharded pass, outside the per-event path
		t.correct = append(t.correct, 0) //lint:allow hotalloc per-worker merge after the sharded pass, outside the per-event path
	}
	for j := range o.preds {
		t.preds[j] += o.preds[j]
		t.correct[j] += o.correct[j]
	}
	t.switches = append(t.switches, o.switches...) //lint:allow hotalloc per-worker merge after the sharded pass, outside the per-event path
	for j := 0; j < o.pcs.n; j++ {
		st := o.pcs.at(j)
		i, added := t.pcIdx.Add(st.pc)
		if added {
			t.pcs.push(st.pc)
		}
		d := t.pcs.at(int(i))
		d.exec += st.exec
		d.taken += st.taken
		d.miss += st.miss
		d.warmupMiss += st.warmupMiss
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
	var samples []telemetry.Sample
	var cum uint64
	for j := range t.preds {
		cum += t.preds[j]
		samples = append(samples, telemetry.Sample{
			Branches:    cum,
			Predictions: t.preds[j],
			Correct:     t.correct[j],
			Accuracy:    float64(t.correct[j]) / float64(t.preds[j]),
		})
	}
	var profile []telemetry.PCStats
	if t.topk > 0 {
		// Select the reported rows, then materialise only those.
		var misses uint64
		for i := 0; i < t.pcs.n; i++ {
			misses += t.pcs.at(i).miss
		}
		order := t.pcs.top(t.topk)
		profile = make([]telemetry.PCStats, 0, len(order))
		for _, i := range order {
			st := t.pcs.at(int(i))
			row := telemetry.PCStats{
				PC:           st.pc,
				Executions:   st.exec,
				Taken:        st.taken,
				Mispredicts:  st.miss,
				WarmupMisses: st.warmupMiss,
			}
			if st.exec > 0 {
				row.TakenRate = float64(st.taken) / float64(st.exec)
			}
			if misses > 0 {
				row.MissShare = float64(st.miss) / float64(misses)
			}
			profile = append(profile, row)
		}
	}
	return samples, t.switches, profile
}
