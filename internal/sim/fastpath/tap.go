package fastpath

// Run telemetry: a Tap folds the interval accuracy series and the per-PC
// mispredict profile out of a replay's mispredict bitset, one bit per
// resolved conditional branch, and hands a telemetry.Forensics the run's
// log. A kernel replay hands the Tap its plan — whose columns hold every
// branch's PC, site id and outcome — and the bitset its loops stored;
// the loops themselves do no telemetry work at all. The interpretive
// runner feeds the same bitset through the exported Resolve and Switch,
// plus a small log of PCs and outcomes the Tap owns, so both replay
// engines share one implementation. Nothing is folded until Telemetry
// or Forensics is called: the series is a popcount per interval, the
// profile telemetry's per-site fold, which walks the set bits only, so
// a profile costs work per misprediction, not per branch.

import "twolevel/internal/telemetry"

// Tap is one replay's telemetry accumulator.
type Tap struct {
	every  uint64 // interval size in resolved branches (0 = no series)
	warmup uint64 // resolutions attributed to warmup (0 = no split)
	topk   int    // per-PC profile rows to report (0 = no profile)
	logged bool   // Resolve appends to the log (a profile or Config.Log)

	recordSwitches bool
	switches       []uint64 // resolution index at each context switch

	// log holds the resolved branches' PCs and outcomes: a kernel's plan
	// (borrowed), or the Tap's own, which Resolve appends to.
	log  *Plan
	own  bool
	miss []uint64 // mispredict bit per resolved branch
	n    int      // resolved conditional branches
}

// NewTap returns the accumulator cfg's Interval, TopPCs, Warmup and Log
// ask for, or nil when telemetry is off entirely. Context switches are
// recorded only alongside an interval series.
func NewTap(cfg Config) *Tap {
	if cfg.Interval == 0 && cfg.TopPCs <= 0 && !cfg.Log {
		return nil
	}
	return &Tap{
		every:          cfg.Interval,
		warmup:         cfg.Warmup,
		topk:           cfg.TopPCs,
		logged:         cfg.logged(),
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
	if t.logged {
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
// (a sample per Interval resolutions, the last one possibly partial), the
// context-switch resolution indices, the top-K per-PC mispredict profile
// in telemetry.SiteFold.Top order (mispredicts descending, PC ascending)
// and the number of branch sites it ranked. Each is nil or 0 when its
// mode was off.
func (t *Tap) Telemetry() ([]telemetry.Sample, []uint64, []telemetry.PCStats, int) {
	if t == nil {
		return nil, nil, nil, 0
	}
	var profile []telemetry.PCStats
	var sites int
	if t.topk > 0 {
		profile, sites = foldProfile(t.log, t.miss, t.n, t.topk, t.warmup)
	}
	return foldSamples(t.miss, t.n, t.every), t.switches, profile, sites
}

// Forensics hands f the run's log: every resolved branch's site and
// outcome, the site PCs and the mispredict bitset, which is all
// Forensics reads. The Tap must log (a profile or Config.Log), and a
// kernel's plan must still be live.
func (t *Tap) Forensics(f *telemetry.Forensics) {
	if t == nil || !t.logged {
		return
	}
	f.AppendLog(t.log.siteLog(t.miss, t.n))
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
		correct := preds - telemetry.OnesIn(miss, int(lo), int(hi))
		samples[i] = telemetry.Sample{
			Branches: hi, Predictions: preds, Correct: correct,
			Accuracy: float64(correct) / float64(preds),
		}
	}
	return samples
}

// foldProfile ranks the sites that branches [0, n) of log reach by
// their mispredicts in bitset miss and materialises the topk reported
// ones, taking their executions and taken counts from the log's shared
// per-site counts. It also returns the number of sites ranked.
func foldProfile(log *Plan, miss []uint64, n, topk int, warmup uint64) ([]telemetry.PCStats, int) {
	l := log.siteLog(miss, n)
	fold := telemetry.FoldSites(l, warmup)
	order := fold.Top(topk)
	var sc telemetry.SiteCounts
	if len(order) > 0 {
		sc = log.siteCounts(l)
	}
	return fold.Profile(order, sc), len(l.Sites)
}
