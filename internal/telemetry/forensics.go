package telemetry

import (
	"math"
	"sort"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// Forensics is the mispredict flight recorder and hard-to-predict (H2P)
// branch profiler: beyond counting misses per static branch, it records
// *why* they happen — the per-history-pattern outcome histograms, shadow
// automaton-state transitions, warmup-vs-steady miss split and
// history-register entropy that let a report name the dominant miss
// pattern of a branch instead of just ranking it.
//
// The shadow model is a PAg-style local history register of HistoryBits
// bits per static branch feeding one A2 (2-bit saturating counter)
// automaton per (branch, pattern). It deliberately does not mirror the
// predictor under test: it is a fixed forensic reference, so reports from
// different schemes over the same trace are directly comparable. Miss
// counts, by contrast, come from the real run (the correct flag of
// Resolve), so the report attributes the predictor's actual misses to
// the history patterns they occurred under. The simulator's telemetry
// sink feeds one on the replay kernel; as an Observer it is that fold's
// test oracle.
//
// A bounded flight recorder keeps the last RecorderSize resolutions; when
// mispredictions cluster (a burst: at least BurstThreshold misses inside
// the recorder window), the window is snapshotted — at most MaxSnapshots
// per run, at least RecorderSize resolutions apart — so the exact event
// sequence around the worst stretches of a run survives into the report.
//
// Everything Forensics collects is a pure function of the event sequence:
// two identical runs produce identical (and identically ordered) reports.
type Forensics struct {
	NopObserver
	cfg     ForensicsConfig
	machine *automaton.Machine
	mask    uint32 // HistoryBits ones
	warmupN uint64 // resolutions counted as warmup

	seq       uint64 // resolutions so far
	misses    uint64
	pcs       map[uint32]*pcForensics
	ring      []FlightEvent
	ringMiss  int    // mispredicts currently inside the ring
	lastSnap  uint64 // seq at the last snapshot (0 = none yet)
	snapshots []FlightSnapshot
}

// ForensicsConfig configures a Forensics. The zero value selects
// the defaults documented per field.
type ForensicsConfig struct {
	// TopK bounds the offender list of the report (default 8).
	TopK int
	// HistoryBits is the shadow local-history length (default 8).
	HistoryBits int
	// RecorderSize is the flight-recorder window in resolutions
	// (default 64).
	RecorderSize int
	// BurstThreshold is the misprediction count inside the recorder
	// window that triggers a snapshot (default RecorderSize/4).
	BurstThreshold int
	// MaxSnapshots bounds the snapshots kept per run (default 4).
	MaxSnapshots int
	// Budget is the run's conditional branch budget; the first
	// WarmupFrac of it counts as warmup in the miss split. 0 means
	// unknown: every miss is then counted as steady-state.
	Budget uint64
	// WarmupFrac is the warmup share of Budget (default 0.1).
	WarmupFrac float64
}

func (c ForensicsConfig) withDefaults() ForensicsConfig {
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.HistoryBits <= 0 {
		c.HistoryBits = 8
	}
	if c.HistoryBits > flat.MaxHistoryBits {
		c.HistoryBits = flat.MaxHistoryBits
	}
	if c.RecorderSize <= 0 {
		c.RecorderSize = 64
	}
	if c.BurstThreshold <= 0 {
		c.BurstThreshold = max(1, c.RecorderSize/4)
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 4
	}
	if c.WarmupFrac <= 0 || c.WarmupFrac >= 1 {
		c.WarmupFrac = 0.1
	}
	return c
}

// pcForensics is the per-static-branch working state.
type pcForensics struct {
	exec, taken, miss uint64
	warmupMiss        uint64
	hist              uint32 // shadow register, stepped with flat.Shift
	patterns          map[uint32]*patternCount
	states            map[uint32]automaton.State
	transitions       [][2]uint64 // [state][outcome] counts
}

type patternCount struct {
	taken, notTaken, miss uint64
}

// NewForensics returns a forensics observer with cfg's defaults applied.
func NewForensics(cfg ForensicsConfig) *Forensics {
	cfg = cfg.withDefaults()
	f := &Forensics{
		cfg:     cfg,
		machine: automaton.New(automaton.A2),
		mask:    uint32(1)<<cfg.HistoryBits - 1,
		pcs:     make(map[uint32]*pcForensics),
		ring:    make([]FlightEvent, 0, cfg.RecorderSize),
	}
	if cfg.Budget > 0 {
		f.warmupN = uint64(float64(cfg.Budget) * cfg.WarmupFrac)
	}
	return f
}

// OnResolve implements Observer.
func (f *Forensics) OnResolve(b trace.Branch, predicted, correct bool) {
	f.Resolve(b.PC, b.Taken, correct)
}

// Resolve records one resolved conditional branch: its PC, outcome and
// whether it was predicted correctly — all a report depends on, so a
// Forensics fed from a replay's resolved-branch log reports as one fed
// by OnResolve.
func (f *Forensics) Resolve(pc uint32, taken, correct bool) {
	f.seq++
	p := f.pcs[pc]
	if p == nil {
		p = &pcForensics{
			hist:        f.mask | flat.FreshBit,
			patterns:    make(map[uint32]*patternCount),
			states:      make(map[uint32]automaton.State),
			transitions: make([][2]uint64, f.machine.States()),
		}
		f.pcs[pc] = p
	}
	pattern := p.hist & f.mask
	pat := p.patterns[pattern]
	if pat == nil {
		pat = &patternCount{}
		p.patterns[pattern] = pat
	}
	st, ok := p.states[pattern]
	if !ok {
		st = f.machine.Initial()
	}
	outcome := uint32(0)
	if taken {
		outcome = 1
	}
	p.transitions[st][outcome]++
	p.states[pattern] = f.machine.Next(st, taken)

	p.exec++
	if taken {
		p.taken++
		pat.taken++
	} else {
		pat.notTaken++
	}
	if !correct {
		p.miss++
		pat.miss++
		f.misses++
		if f.warmupN > 0 && f.seq <= f.warmupN {
			p.warmupMiss++
		}
	}
	p.hist = flat.Shift(p.hist, outcome, f.mask)

	f.record(FlightEvent{
		Seq:       f.seq,
		PC:        pc,
		Taken:     taken,
		Predicted: taken == correct,
		Correct:   correct,
	})
}

// record appends to the flight recorder and snapshots mispredict bursts.
func (f *Forensics) record(e FlightEvent) {
	if len(f.ring) == f.cfg.RecorderSize {
		if !f.ring[0].Correct {
			f.ringMiss--
		}
		copy(f.ring, f.ring[1:])
		f.ring = f.ring[:len(f.ring)-1]
	}
	f.ring = append(f.ring, e)
	if !e.Correct {
		f.ringMiss++
	}
	if e.Correct || f.ringMiss < f.cfg.BurstThreshold {
		return
	}
	if len(f.snapshots) >= f.cfg.MaxSnapshots {
		return
	}
	// Space snapshots at least one full window apart so a long burst
	// yields one picture, not MaxSnapshots copies of the same stretch.
	if f.lastSnap != 0 && e.Seq-f.lastSnap < uint64(f.cfg.RecorderSize) {
		return
	}
	f.lastSnap = e.Seq
	f.snapshots = append(f.snapshots, FlightSnapshot{
		TriggerSeq:  e.Seq,
		Mispredicts: f.ringMiss,
		Events:      append([]FlightEvent(nil), f.ring...),
	})
}

// FlightEvent is one resolution in the flight recorder.
type FlightEvent struct {
	// Seq is the 1-based resolution index within the run.
	Seq uint64 `json:"seq"`
	// PC is the branch address.
	PC uint32 `json:"pc"`
	// Taken is the real outcome; Predicted the predictor's call.
	Taken     bool `json:"taken"`
	Predicted bool `json:"predicted"`
	// Correct is Predicted == Taken.
	Correct bool `json:"correct"`
}

// FlightSnapshot is the recorder window captured at one mispredict burst.
type FlightSnapshot struct {
	// TriggerSeq is the resolution index of the miss that triggered the
	// snapshot (the last event of the window).
	TriggerSeq uint64 `json:"trigger_seq"`
	// Mispredicts is the number of misses inside the window.
	Mispredicts int `json:"mispredicts"`
	// Events is the window, oldest first.
	Events []FlightEvent `json:"events"`
}

// PatternStat is one row of a branch's per-history-pattern histogram.
type PatternStat struct {
	// Pattern is the shadow history pattern as a bit string, oldest
	// outcome first (1 = taken).
	Pattern string `json:"pattern"`
	// Taken and NotTaken count real outcomes observed under the pattern.
	Taken    uint64 `json:"taken"`
	NotTaken uint64 `json:"not_taken"`
	// Mispredicts counts the run's real misses under the pattern.
	Mispredicts uint64 `json:"mispredicts"`
	// MissRate is Mispredicts over the pattern's occurrences.
	MissRate float64 `json:"miss_rate"`
}

// Occurrences returns how many resolutions happened under the pattern.
func (p PatternStat) Occurrences() uint64 { return p.Taken + p.NotTaken }

// TakenRate returns the taken fraction under the pattern (0 when never
// observed).
func (p PatternStat) TakenRate() float64 {
	if n := p.Occurrences(); n > 0 {
		return float64(p.Taken) / float64(n)
	}
	return 0
}

// StateTransition counts one edge of the shadow A2 automaton for a branch.
type StateTransition struct {
	// From is the automaton state the edge leaves ("SN", "WN", "WT",
	// "ST" for A2).
	From string `json:"from"`
	// Outcome is the resolved direction taking the edge.
	Outcome string `json:"outcome"`
	// To is the successor state.
	To string `json:"to"`
	// Count is how often the edge was taken.
	Count uint64 `json:"count"`
}

// PCForensics is the full forensic profile of one static branch.
type PCForensics struct {
	// PC is the branch address.
	PC uint32 `json:"pc"`
	// Executions, Mispredicts, TakenRate and MissShare mirror the
	// hot-branch table.
	Executions  uint64  `json:"executions"`
	Mispredicts uint64  `json:"mispredicts"`
	TakenRate   float64 `json:"taken_rate"`
	MissShare   float64 `json:"miss_share"`
	// WarmupMisses and SteadyMisses split the misses at the warmup
	// boundary (first WarmupFrac of Budget). With Budget unknown every
	// miss is steady.
	WarmupMisses uint64 `json:"warmup_misses"`
	SteadyMisses uint64 `json:"steady_misses"`
	// HistoryEntropyBits is the Shannon entropy of the branch's shadow
	// history-pattern distribution: 0 means one pattern covers every
	// execution; HistoryBits means the patterns are uniformly spread.
	HistoryEntropyBits float64 `json:"history_entropy_bits"`
	// PatternsSeen is the number of distinct shadow patterns observed.
	PatternsSeen int `json:"patterns_seen"`
	// DominantPattern is the pattern carrying the most misses (empty
	// when the branch never missed); DominantPatternMisses its count.
	DominantPattern       string `json:"dominant_pattern,omitempty"`
	DominantPatternMisses uint64 `json:"dominant_pattern_misses,omitempty"`
	// Patterns is the per-pattern histogram, ordered by mispredicts
	// descending, then pattern value ascending. Bounded to the
	// patternsPerPC worst rows.
	Patterns []PatternStat `json:"patterns"`
	// Transitions are the shadow automaton edge counts, ordered by
	// state then outcome. Edges never taken are omitted.
	Transitions []StateTransition `json:"transitions"`
}

// ForensicsReport is the per-run product of a Forensics.
type ForensicsReport struct {
	// HistoryBits is the shadow history length the report was built with.
	HistoryBits int `json:"history_bits"`
	// Resolutions and Mispredicts count the run's conditional branches.
	Resolutions uint64 `json:"resolutions"`
	Mispredicts uint64 `json:"mispredicts"`
	// StaticBranches is the number of distinct branch sites observed.
	StaticBranches int `json:"static_branches"`
	// WarmupResolutions is the warmup boundary used for the miss split
	// (0 = unknown budget, no warmup attribution).
	WarmupResolutions uint64 `json:"warmup_resolutions"`
	// TopOffenders profiles the worst branches by misprediction count,
	// ordered by mispredicts descending then PC ascending.
	TopOffenders []PCForensics `json:"top_offenders"`
	// Snapshots are the flight-recorder windows captured at mispredict
	// bursts, in run order.
	Snapshots []FlightSnapshot `json:"snapshots,omitempty"`
}

// patternsPerPC bounds the per-branch histogram rows in a report.
const patternsPerPC = 16

// stateName names an A2 state for reports.
func stateName(s automaton.State) string {
	switch s {
	case 0:
		return "SN"
	case 1:
		return "WN"
	case 2:
		return "WT"
	case 3:
		return "ST"
	}
	return "S?"
}

// patternString renders a k-bit pattern as a bit string, oldest first.
func patternString(pattern uint32, k int) string {
	buf := make([]byte, k)
	for i := 0; i < k; i++ {
		if pattern>>(k-1-i)&1 == 1 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// TotalMispredicts returns the run's misprediction count so far.
func (f *Forensics) TotalMispredicts() uint64 { return f.misses }

// Lookup returns the forensic profile of one static branch, or false when
// the branch was never observed. It is not bounded by TopK.
func (f *Forensics) Lookup(pc uint32) (PCForensics, bool) {
	p, ok := f.pcs[pc]
	if !ok {
		return PCForensics{}, false
	}
	return f.profile(pc, p), true
}

// Report assembles the forensics report: the TopK worst offenders plus
// the burst snapshots. Ordering is fully deterministic.
func (f *Forensics) Report() ForensicsReport {
	rep := ForensicsReport{
		HistoryBits:       f.cfg.HistoryBits,
		Resolutions:       f.seq,
		Mispredicts:       f.misses,
		StaticBranches:    len(f.pcs),
		WarmupResolutions: f.warmupN,
		Snapshots:         f.snapshots,
	}
	type ranked struct {
		pc   uint32
		miss uint64
	}
	all := make([]ranked, 0, len(f.pcs))
	for pc, p := range f.pcs {
		all = append(all, ranked{pc: pc, miss: p.miss})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].miss != all[j].miss {
			return all[i].miss > all[j].miss
		}
		return all[i].pc < all[j].pc
	})
	if len(all) > f.cfg.TopK {
		all = all[:f.cfg.TopK]
	}
	for _, r := range all {
		rep.TopOffenders = append(rep.TopOffenders, f.profile(r.pc, f.pcs[r.pc]))
	}
	return rep
}

// profile builds the report row for one branch.
func (f *Forensics) profile(pc uint32, p *pcForensics) PCForensics {
	out := PCForensics{
		PC:           pc,
		Executions:   p.exec,
		Mispredicts:  p.miss,
		WarmupMisses: p.warmupMiss,
		SteadyMisses: p.miss - p.warmupMiss,
		PatternsSeen: len(p.patterns),
	}
	if p.exec > 0 {
		out.TakenRate = float64(p.taken) / float64(p.exec)
	}
	if f.misses > 0 {
		out.MissShare = float64(p.miss) / float64(f.misses)
	}

	type patRow struct {
		pattern uint32
		c       *patternCount
	}
	rows := make([]patRow, 0, len(p.patterns))
	for pattern, c := range p.patterns {
		rows = append(rows, patRow{pattern: pattern, c: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c.miss != rows[j].c.miss {
			return rows[i].c.miss > rows[j].c.miss
		}
		return rows[i].pattern < rows[j].pattern
	})
	// Entropy is summed in sorted order so the floating-point result is
	// identical across runs despite map iteration order.
	for _, r := range rows {
		n := r.c.taken + r.c.notTaken
		if n > 0 {
			prob := float64(n) / float64(p.exec)
			out.HistoryEntropyBits -= prob * math.Log2(prob)
		}
	}
	// Avoid -0 for single-pattern branches.
	out.HistoryEntropyBits = math.Abs(out.HistoryEntropyBits)
	if len(rows) > 0 && rows[0].c.miss > 0 {
		out.DominantPattern = patternString(rows[0].pattern, f.cfg.HistoryBits)
		out.DominantPatternMisses = rows[0].c.miss
	}
	if len(rows) > patternsPerPC {
		rows = rows[:patternsPerPC]
	}
	for _, r := range rows {
		ps := PatternStat{
			Pattern:     patternString(r.pattern, f.cfg.HistoryBits),
			Taken:       r.c.taken,
			NotTaken:    r.c.notTaken,
			Mispredicts: r.c.miss,
		}
		if n := ps.Occurrences(); n > 0 {
			ps.MissRate = float64(ps.Mispredicts) / float64(n)
		}
		out.Patterns = append(out.Patterns, ps)
	}

	for st := range p.transitions {
		for outcome := 0; outcome < 2; outcome++ {
			n := p.transitions[st][outcome]
			if n == 0 {
				continue
			}
			from := automaton.State(st)
			dir := "not-taken"
			taken := false
			if outcome == 1 {
				dir = "taken"
				taken = true
			}
			out.Transitions = append(out.Transitions, StateTransition{
				From:    stateName(from),
				Outcome: dir,
				To:      stateName(f.machine.Next(from, taken)),
				Count:   n,
			})
		}
	}
	return out
}
