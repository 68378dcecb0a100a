// Package fastpath is the branchless fast-replay kernel: a specialized
// replay engine that drives flat-table predict+update loops directly over
// a packed trace snapshot's SoA columns, bypassing the per-event
// trace.Source / predictor.Predictor interface calls of the interpretive
// runner in package sim.
//
// The kernel runs only when a replay cell qualifies (see Supported and
// sim's dispatch): depth-0 base model, no Observer, a *trace.SnapshotReader
// source, and a predictor whose state flattens — the static AlwaysTaken
// and BTFN schemes, or a *predictor.TwoLevel of any taxonomy variation
// (GAg/PAg/PAp plus the GAp/GAs/PAs/SAg/SAs/SAp extensions, practical or
// ideal BHT, custom machines, Static Training presets) without
// speculative history. Everything else falls back to the interpretive
// runner.
//
// Mechanics: each automaton's δ/λ are flattened into a packed
// [state<<1|outcome] transition array and a λ bitmask; history registers
// become raw uint32 values (a spare bit carries the §4.2 first-outcome
// freshness flag); the branch history table becomes parallel flat arrays
// (valid/pc/stamp/history/prediction/target); and pattern tables are
// updated in place through their raw state slices. Per event the hot loop
// does a handful of array loads and stores — no interface calls, no Event
// struct materialisation.
//
// Fidelity: a kernel run is bit-identical to the interpretive runner —
// the same Result counters and the same final predictor state (the one
// deliberate exception: the BHT LRU clock advances once per branch
// instead of once per Lookup/Allocate touch; since every touch within a
// branch refreshes the same entry, the relative stamp order — all that
// replacement decisions consult — is preserved). The equivalence suite in
// package sim deep-equals both paths across the full spec grid.
package fastpath

import (
	"context"

	"twolevel/internal/automaton"
	"twolevel/internal/bht"
	"twolevel/internal/history"
	"twolevel/internal/pht"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// Config carries the sim options the kernel honours. The dispatching
// caller guarantees the rest of the option surface is at its zero value
// (no observer, no pipeline).
type Config struct {
	// ContextSwitches enables trap/quantum context-switch injection.
	ContextSwitches bool
	// CSInterval is the instruction quantum (0 = sim's default is
	// resolved by the caller; the kernel requires a concrete value).
	CSInterval uint64
	// MaxCondBranches bounds the run (0 = drain the snapshot).
	MaxCondBranches uint64
	// Context, when non-nil, is polled every few thousand events.
	Context context.Context
	// Shards requests PC-partitioned parallel replay with a
	// deterministic counter merge (<= 1 means serial). Honoured only for
	// variations whose first and second levels are both non-global; the
	// kernel silently runs serial otherwise.
	Shards int
	// Interval, when > 0, accumulates an accuracy sample every Interval
	// resolved conditional branches — the kernel-native equivalent of
	// the telemetry.IntervalSeries observer, bit-identical by the
	// equivalence suite.
	Interval uint64
	// TopPCs, when > 0, accumulates a per-PC mispredict profile and
	// reports the TopPCs worst branches (telemetry.HotBranches order).
	TopPCs int
	// Warmup is the resolved-branch index bounding the warmup-miss
	// split of the per-PC profile (0 = attribute every miss to steady
	// state, matching Forensics with an unknown budget).
	Warmup uint64
}

// bhtClock is the state a BHT lookup advances besides the shared mirror
// arrays: the LRU clock and the hit-rate counter deltas. The serial
// kernel owns one; each shard worker owns a private one, so the same
// lookupAllocCache body serves both paths.
type bhtClock struct {
	clock           uint64
	lookups, misses uint64
}

// Counters mirrors sim.Result for the depth-0 base model (Repredictions
// is structurally zero on this path). Package sim converts.
type Counters struct {
	Predictions, Correct             uint64
	ByClass                          [trace.NumClasses]uint64
	Instructions                     uint64
	Traps                            uint64
	ContextSwitches                  uint64
	TakenCond                        uint64
	TargetPredictions, TargetCorrect uint64
}

// merge adds o into c (deterministic: plain field sums).
func (c *Counters) merge(o Counters) {
	c.Predictions += o.Predictions
	c.Correct += o.Correct
	for i := range c.ByClass {
		c.ByClass[i] += o.ByClass[i]
	}
	c.Instructions += o.Instructions
	c.Traps += o.Traps
	c.ContextSwitches += o.ContextSwitches
	c.TakenCond += o.TakenCond
	c.TargetPredictions += o.TargetPredictions
	c.TargetCorrect += o.TargetCorrect
}

// checkInterval matches sim's cancellation poll cadence.
const checkInterval = 4096

// freshBit flags a mirrored history register that still awaits its first
// real outcome (§4.2 smearing). history.MaxBits is 30, so bit 31 is free.
const freshBit = uint32(1) << 31

// Supported reports whether the kernel can replay p. The caller checks
// the option-side conditions (depth 0, nil observer, snapshot source);
// this is the predictor-side half of eligibility.
func Supported(p predictor.Predictor) bool {
	switch tp := p.(type) {
	case predictor.AlwaysTaken, predictor.BTFN:
		return true
	case *predictor.TwoLevel:
		return tp != nil && !tp.Config().SpeculativeHistory
	default:
		return false
	}
}

// kernelKind selects the hot loop.
type kernelKind uint8

const (
	kindAlwaysTaken kernelKind = iota
	kindBTFN
	kindTwoLevel
)

// Kernel is one flattened replay cell. Build one with New, drive it with
// Run (or RunSharded), then the final predictor state has already been
// written back. A Kernel is single-use.
type Kernel struct {
	kind kernelKind
	cfg  Config

	// Two-level structure (kindTwoLevel only).
	view         predictor.FlatView
	hAxis, pAxis predictor.Axis
	kbits        int
	histMask     uint32
	delta        []automaton.State // δ, indexed [state<<1 | outcome]
	predMask     uint64            // λ, one bit per state
	initState    automaton.State   // pattern-table entry init (honours PatternInit)
	freshHist    uint32            // entry-allocation history (honours ColdHistoryZero)
	resetHist    uint32            // context-switch / global reset history (always all-ones fresh)

	ghr uint32 // mirrored global history register

	histSetMask uint32 // per-set history register file index mask
	setHists    []uint32

	patSetMask uint32 // per-set pattern table index mask
	setStates  [][]automaton.State
	setTouched [][]uint64

	gStates  []automaton.State // global pattern table, in place
	gTouched []uint64

	// Branch history table mirror. For the practical Cache the arrays
	// are sized to capacity in physical slot order; for the Ideal table
	// they grow per tracked branch with idealIdx/idealPCs as the
	// directory (ever/pcs/stamps stay unused).
	store      bht.Store
	cache      *bht.Cache
	ideal      *bht.Ideal
	perAddrPHT bool
	assoc      int
	setMask    uint32
	valid      []bool
	ever       []bool
	pcs        []uint32
	stamps     []uint64
	hists      []uint32
	preds      []bool
	targets    []uint32
	phtTables  []*pht.Table
	phtStates  [][]automaton.State
	phtTouched [][]uint64
	phtInit    []automaton.State // a fresh slot PHT's states, copied over a recycled one
	idealIdx   pcIndex
	idealPCs   []uint32

	bhtClock // serial LRU clock and BHT counter deltas, written back after the run

	c       Counters
	sinceCS uint64

	tap *Tap // kernel-native telemetry accumulator; nil when off
}

// New builds a kernel over p, seeding the flat mirrors from the
// predictor's current state. ok is false when p is not Supported.
func New(p predictor.Predictor, cfg Config) (*Kernel, bool) {
	if cfg.CSInterval == 0 {
		cfg.CSInterval = 1 // caller resolves the default; never divide by zero
	}
	switch tp := p.(type) {
	case predictor.AlwaysTaken:
		return &Kernel{kind: kindAlwaysTaken, cfg: cfg, tap: NewTap(cfg)}, true
	case predictor.BTFN:
		return &Kernel{kind: kindBTFN, cfg: cfg, tap: NewTap(cfg)}, true
	case *predictor.TwoLevel:
		if tp == nil || tp.Config().SpeculativeHistory {
			return nil, false
		}
		k := &Kernel{kind: kindTwoLevel, cfg: cfg, view: tp.FlatView(), tap: NewTap(cfg)}
		k.seed()
		return k, true
	default:
		return nil, false
	}
}

// encodeHist packs a history register into the kernel's mirror format.
func encodeHist(r *history.Register) uint32 {
	v := r.Pattern()
	if r.Fresh() {
		v |= freshBit
	}
	return v
}

// seed flattens the predictor's machine and mirrors its mutable state.
func (k *Kernel) seed() {
	v := k.view
	cfg := v.Config
	k.hAxis = cfg.Variation.HistoryAxis()
	k.pAxis = cfg.Variation.PatternAxis()
	k.kbits = cfg.HistoryBits
	k.histMask = uint32(1)<<cfg.HistoryBits - 1

	m := v.Machine
	states := m.States()
	k.delta = make([]automaton.State, states*2)
	for s := 0; s < states; s++ {
		k.delta[s<<1] = m.Next(automaton.State(s), false)
		k.delta[s<<1|1] = m.Next(automaton.State(s), true)
		if m.Predict(automaton.State(s)) {
			k.predMask |= 1 << s
		}
	}
	k.initState = m.Initial()
	if cfg.PatternInit != nil {
		k.initState = *cfg.PatternInit
	}
	k.resetHist = k.histMask | freshBit
	k.freshHist = k.resetHist
	if cfg.ColdHistoryZero {
		k.freshHist = 0
	}

	switch k.hAxis {
	case predictor.AxisGlobal:
		k.ghr = encodeHist(v.GHR)
	case predictor.AxisPerSet:
		k.histSetMask = uint32(len(v.SetHists) - 1)
		k.setHists = make([]uint32, len(v.SetHists))
		for i := range v.SetHists {
			k.setHists[i] = encodeHist(&v.SetHists[i])
		}
	}

	switch k.pAxis {
	case predictor.AxisGlobal:
		k.gStates = v.GPHT.RawStates()
		k.gTouched = v.GPHT.RawTouched()
	case predictor.AxisPerSet:
		k.patSetMask = uint32(len(v.SetPHTs) - 1)
		k.setStates = make([][]automaton.State, len(v.SetPHTs))
		k.setTouched = make([][]uint64, len(v.SetPHTs))
		for i, t := range v.SetPHTs {
			k.setStates[i] = t.RawStates()
			k.setTouched[i] = t.RawTouched()
		}
	default:
		k.perAddrPHT = true
	}

	k.store = v.Store
	switch st := v.Store.(type) {
	case *bht.Cache:
		k.cache = st
		n := st.Entries()
		k.assoc = st.Assoc()
		k.setMask = uint32(st.Sets() - 1)
		k.clock = st.Clock()
		k.valid = make([]bool, n)
		k.ever = make([]bool, n)
		k.pcs = make([]uint32, n)
		k.stamps = make([]uint64, n)
		k.hists = make([]uint32, n)
		k.preds = make([]bool, n)
		k.targets = make([]uint32, n)
		if k.perAddrPHT {
			k.phtTables = make([]*pht.Table, n)
			k.phtStates = make([][]automaton.State, n)
			k.phtTouched = make([][]uint64, n)
			if !cfg.InheritPHTOnReplace {
				k.phtInit = make([]automaton.State, 1<<k.kbits)
				for i := range k.phtInit {
					k.phtInit[i] = k.initState
				}
			}
		}
		for i := 0; i < n; i++ {
			e := st.At(i)
			k.valid[i] = e.Valid()
			k.ever[i] = e.Ever()
			k.pcs[i] = e.PC()
			k.stamps[i] = e.Stamp()
			if !e.Ever() {
				continue
			}
			k.hists[i] = encodeHist(&e.Hist)
			k.preds[i] = e.Pred
			k.targets[i] = e.Target
			if k.perAddrPHT && e.PHT != nil {
				k.phtTables[i] = e.PHT
				k.phtStates[i] = e.PHT.RawStates()
				k.phtTouched[i] = e.PHT.RawTouched()
			}
		}
	case *bht.Ideal:
		k.ideal = st
		st.Range(func(e *bht.Entry) {
			k.idealIdx.add(e.PC()) // dense index == len(k.idealPCs)
			k.idealPCs = append(k.idealPCs, e.PC())
			k.valid = append(k.valid, e.Valid())
			k.hists = append(k.hists, encodeHist(&e.Hist))
			k.preds = append(k.preds, e.Pred)
			k.targets = append(k.targets, e.Target)
			if k.perAddrPHT {
				if e.PHT != nil {
					k.phtTables = append(k.phtTables, e.PHT)
					k.phtStates = append(k.phtStates, e.PHT.RawStates())
					k.phtTouched = append(k.phtTouched, e.PHT.RawTouched())
				} else {
					k.phtTables = append(k.phtTables, nil)
					k.phtStates = append(k.phtStates, nil)
					k.phtTouched = append(k.phtTouched, nil)
				}
			}
		})
	}
}

// newSlotPHT materialises a per-slot pattern table exactly as the
// interpretive predictor would on first allocation.
func (k *Kernel) newSlotPHT() *pht.Table {
	return pht.NewInit(k.kbits, k.view.Machine, k.initState)
}

// writeback restores the predictor's state from the kernel mirrors.
// Pattern tables were updated in place and need nothing; history
// registers, BHT bookkeeping and payloads, and the BHT hit counters are
// written back here.
func (k *Kernel) writeback() {
	if k.kind != kindTwoLevel {
		return
	}
	v := k.view
	switch k.hAxis {
	case predictor.AxisGlobal:
		v.GHR.Restore(k.ghr&k.histMask, k.ghr&freshBit != 0)
	case predictor.AxisPerSet:
		for i := range v.SetHists {
			h := k.setHists[i]
			v.SetHists[i].Restore(h&k.histMask, h&freshBit != 0)
		}
	}
	switch {
	case k.cache != nil:
		for i := range k.valid {
			k.cache.SetSlot(i, k.valid[i], k.ever[i], k.pcs[i], k.stamps[i])
			if !k.ever[i] {
				continue
			}
			e := k.cache.At(i)
			r := history.New(k.kbits)
			r.Restore(k.hists[i]&k.histMask, k.hists[i]&freshBit != 0)
			e.Hist = r
			e.Pred = k.preds[i]
			e.Target = k.targets[i]
			if k.perAddrPHT && k.phtTables[i] != nil {
				e.PHT = k.phtTables[i]
			}
		}
		k.cache.SetClock(k.clock)
	case k.ideal != nil:
		for j, pc := range k.idealPCs {
			e := k.ideal.Slot(pc)
			e.SetValid(k.valid[j])
			r := history.New(k.kbits)
			r.Restore(k.hists[j]&k.histMask, k.hists[j]&freshBit != 0)
			e.Hist = r
			e.Pred = k.preds[j]
			e.Target = k.targets[j]
			if k.perAddrPHT && e.PHT == nil {
				e.PHT = k.phtTables[j]
			}
		}
	}
	*v.BHTLookups += k.lookups
	*v.BHTMisses += k.misses
}

// StopIndex returns the exclusive end index of a replay of snap from
// start under budget max: the index just past the max-th conditional
// branch after start (the interpretive runner's budget semantics — it
// stops before consuming the event after the one that met the budget),
// or snap.Len() when the budget is 0 or the snapshot ends first. Run
// computes it per kernel; sim.RunMany resolves it once per distinct
// budget of a batch and hands it to RunTo.
func StopIndex(snap trace.Snapshot, start int, max uint64) int {
	_, _, _, meta := snap.Columns()
	if max == 0 {
		return len(meta)
	}
	var seen uint64
	for i := start; i < len(meta); i++ {
		m := meta[i]
		if m&trace.MetaTrap == 0 && trace.Class(m>>trace.MetaClassShift) == trace.Cond {
			if seen++; seen == max {
				return i + 1
			}
		}
	}
	return len(meta)
}

// Run replays snap from event index start, honouring the kernel's
// budget, context-switch and cancellation configuration, writes the
// final predictor state back, and returns the counters plus the number
// of events consumed. On cancellation the partial counters and consumed
// count collected so far are returned with ctx's error; the predictor
// state is still written back so the caller sees a consistent prefix.
func (k *Kernel) Run(snap trace.Snapshot, start int) (Counters, int, error) {
	return k.RunTo(snap, start, StopIndex(snap, start, k.cfg.MaxCondBranches))
}

// RunTo is Run with the stop index already resolved: end must be
// StopIndex(snap, start, cfg.MaxCondBranches) for the result to honour
// the kernel's budget.
func (k *Kernel) RunTo(snap trace.Snapshot, start, end int) (Counters, int, error) {
	instrs, pcs, targets, meta := snap.Columns()
	var consumed int
	var err error
	switch {
	case k.kind == kindAlwaysTaken || k.kind == kindBTFN:
		consumed, err = k.runStatic(instrs, pcs, targets, meta, start, end)
	case k.shardable() && k.shardCount() > 1:
		consumed, err = k.runSharded(instrs, pcs, targets, meta, start, end)
	case k.hAxis == predictor.AxisGlobal && k.pAxis == predictor.AxisGlobal:
		consumed, err = k.runGAg(instrs, pcs, meta, start, end)
	case k.cache != nil && k.hAxis == predictor.AxisPerAddress && k.pAxis == predictor.AxisGlobal:
		consumed, err = k.runPAgCache(instrs, pcs, targets, meta, start, end)
	case k.cache != nil && k.hAxis == predictor.AxisPerAddress && k.pAxis == predictor.AxisPerAddress:
		consumed, err = k.runPApCache(instrs, pcs, targets, meta, start, end)
	default:
		consumed, err = k.runGeneric(instrs, pcs, targets, meta, start, end)
	}
	k.writeback()
	return k.c, consumed, err
}
