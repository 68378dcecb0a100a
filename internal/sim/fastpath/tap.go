package fastpath

// Run telemetry: a Tap accumulates the interval accuracy series and the
// per-PC mispredict profile. The flat loops feed it directly, so a run
// that wants live telemetry stays on the kernel; the interpretive runner
// feeds the same accumulator through the exported Resolve and Switch, so
// both replay engines share one implementation. The accumulators are
// plain per-shard arrays behind a pcIndex directory, merged
// deterministically at writeback; every hot-loop call site is
// nil-guarded (one predictable branch when telemetry is off — the same
// zero-cost-when-disabled contract Observer carries, enforced by the
// obsnilguard analyzer).

import (
	"sort"

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

	pcIdx pcIndex // PC → index into pcs (topk > 0 only)
	pcs   pcTaps  // per-PC counters at pcIdx's dense indices
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
		i, added := t.pcIdx.add(pc)
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
		t.preds = append(t.preds, 0)     //lint:allow hotalloc per-worker merge at writeback, outside the per-event path
		t.correct = append(t.correct, 0) //lint:allow hotalloc per-worker merge at writeback, outside the per-event path
	}
	for j := range o.preds {
		t.preds[j] += o.preds[j]
		t.correct[j] += o.correct[j]
	}
	t.switches = append(t.switches, o.switches...) //lint:allow hotalloc per-worker merge at writeback, outside the per-event path
	for j := 0; j < o.pcs.n; j++ {
		st := o.pcs.at(j)
		i, added := t.pcIdx.add(st.pc)
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
		// Rank dense indices, then materialise only the reported rows.
		var misses uint64
		order := make([]int32, t.pcs.n)
		for i := range order {
			misses += t.pcs.at(i).miss
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := t.pcs.at(int(order[i])), t.pcs.at(int(order[j]))
			if a.miss != b.miss {
				return a.miss > b.miss
			}
			return a.pc < b.pc
		})
		if len(order) > t.topk {
			order = order[:t.topk]
		}
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
