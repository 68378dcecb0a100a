package reference

import (
	"math"
	"sort"

	"twolevel/internal/telemetry"
)

// Forensics is a naive per-event model of the mispredict forensics
// report (telemetry.Forensics), kept as its oracle. It shares only the
// report types with the code under test. Every branch is folded as it
// resolves: a record per PC in a map, a history register and a map of
// pattern rows per PC, and a flight recorder that keeps the last
// RecorderSize resolutions in a slice and shifts it by one per
// resolution. The rules:
//
//   - the shadow model is a local history register of HistoryBits bits
//     per branch, reset like a two-level register (all ones, the first
//     outcome extended through it), feeding one A2 counter per (branch,
//     pattern) that starts in A2's initial state;
//   - a miss among the first tenth of Budget's resolutions is a warmup
//     miss; with Budget 0 every miss is steady;
//   - offenders are ranked by misses descending, then PC ascending; a
//     branch's pattern rows by misses descending, then pattern
//     ascending, and its history entropy is summed in that order;
//   - a miss triggers a snapshot of the recorder when the recorder holds
//     at least BurstThreshold misses, fewer than MaxSnapshots were taken
//     and the last one was taken at least RecorderSize resolutions
//     earlier.
type Forensics struct {
	cfg    telemetry.ForensicsConfig
	mask   uint32
	warmup uint64

	seq       uint64
	misses    uint64
	branches  map[uint32]*branchRecord
	recorder  []telemetry.FlightEvent
	lastSnap  uint64
	snapshots []telemetry.FlightSnapshot
}

// branchRecord is one static branch's forensic state.
type branchRecord struct {
	exec, taken, miss, warmupMiss uint64
	reg                           shiftRegister
	patterns                      map[uint32]*patternRecord
	transitions                   [4][2]uint64
}

// patternRecord is one history pattern's row and A2 counter.
type patternRecord struct {
	taken, notTaken, miss uint64
	state                 byte
}

// NewForensics returns the model configured as telemetry.NewForensics
// would be, defaults included.
func NewForensics(cfg telemetry.ForensicsConfig) *Forensics {
	if cfg.TopK <= 0 {
		cfg.TopK = 8
	}
	if cfg.HistoryBits <= 0 {
		cfg.HistoryBits = 8
	}
	cfg.HistoryBits = min(cfg.HistoryBits, 30)
	if cfg.RecorderSize <= 0 {
		cfg.RecorderSize = 64
	}
	if cfg.BurstThreshold <= 0 {
		cfg.BurstThreshold = max(1, cfg.RecorderSize/4)
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = 4
	}
	return &Forensics{
		cfg:      cfg,
		mask:     1<<cfg.HistoryBits - 1,
		warmup:   cfg.Budget / 10,
		branches: map[uint32]*branchRecord{},
	}
}

// Resolve folds one resolved conditional branch.
func (f *Forensics) Resolve(pc uint32, taken, correct bool) {
	f.seq++
	b := f.branches[pc]
	if b == nil {
		b = &branchRecord{
			reg:      shiftRegister{bits: f.mask, fresh: true},
			patterns: map[uint32]*patternRecord{},
		}
		f.branches[pc] = b
	}
	outcome := uint32(0)
	if taken {
		outcome = 1
	}
	p := b.patterns[b.reg.bits]
	if p == nil {
		p = &patternRecord{state: automata["A2"].init}
		b.patterns[b.reg.bits] = p
	}
	b.transitions[p.state][outcome]++
	p.state = automata["A2"].next[p.state][outcome]
	b.exec++
	if taken {
		b.taken++
		p.taken++
	} else {
		p.notTaken++
	}
	if !correct {
		f.misses++
		b.miss++
		p.miss++
		if f.seq <= f.warmup {
			b.warmupMiss++
		}
	}
	b.reg.shift(outcome, f.mask)

	if len(f.recorder) == f.cfg.RecorderSize {
		f.recorder = f.recorder[1:]
	}
	f.recorder = append(f.recorder, telemetry.FlightEvent{
		Seq: f.seq, PC: pc, Taken: taken, Predicted: taken == correct, Correct: correct,
	})
	inWindow := 0
	for _, e := range f.recorder {
		if !e.Correct {
			inWindow++
		}
	}
	if !correct && inWindow >= f.cfg.BurstThreshold && len(f.snapshots) < f.cfg.MaxSnapshots &&
		(f.lastSnap == 0 || f.seq-f.lastSnap >= uint64(f.cfg.RecorderSize)) {
		f.lastSnap = f.seq
		f.snapshots = append(f.snapshots, telemetry.FlightSnapshot{
			TriggerSeq:  f.seq,
			Mispredicts: inWindow,
			Events:      append([]telemetry.FlightEvent(nil), f.recorder...),
		})
	}
}

// Report returns the report of every branch folded so far.
func (f *Forensics) Report() telemetry.ForensicsReport {
	rep := telemetry.ForensicsReport{
		HistoryBits:       f.cfg.HistoryBits,
		Resolutions:       f.seq,
		Mispredicts:       f.misses,
		StaticBranches:    len(f.branches),
		WarmupResolutions: f.warmup,
		Snapshots:         f.snapshots,
	}
	var pcs []uint32
	for pc := range f.branches {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		a, b := f.branches[pcs[i]], f.branches[pcs[j]]
		if a.miss != b.miss {
			return a.miss > b.miss
		}
		return pcs[i] < pcs[j]
	})
	for _, pc := range pcs[:min(len(pcs), f.cfg.TopK)] {
		rep.TopOffenders = append(rep.TopOffenders, f.profile(pc))
	}
	return rep
}

// Lookup returns one branch's profile, or false when it never resolved.
func (f *Forensics) Lookup(pc uint32) (telemetry.PCForensics, bool) {
	if f.branches[pc] == nil {
		return telemetry.PCForensics{}, false
	}
	return f.profile(pc), true
}

// profile builds one branch's report row.
func (f *Forensics) profile(pc uint32) telemetry.PCForensics {
	b := f.branches[pc]
	out := telemetry.PCForensics{
		PC:           pc,
		Executions:   b.exec,
		Mispredicts:  b.miss,
		TakenRate:    float64(b.taken) / float64(b.exec),
		WarmupMisses: b.warmupMiss,
		SteadyMisses: b.miss - b.warmupMiss,
		PatternsSeen: len(b.patterns),
	}
	if f.misses > 0 {
		out.MissShare = float64(b.miss) / float64(f.misses)
	}
	var patterns []uint32
	for pattern := range b.patterns {
		patterns = append(patterns, pattern)
	}
	sort.Slice(patterns, func(i, j int) bool {
		a, c := b.patterns[patterns[i]], b.patterns[patterns[j]]
		if a.miss != c.miss {
			return a.miss > c.miss
		}
		return patterns[i] < patterns[j]
	})
	for _, pattern := range patterns {
		p := b.patterns[pattern]
		prob := float64(p.taken+p.notTaken) / float64(b.exec)
		out.HistoryEntropyBits -= prob * math.Log2(prob)
	}
	out.HistoryEntropyBits = math.Abs(out.HistoryEntropyBits)
	if worst := b.patterns[patterns[0]]; worst.miss > 0 {
		out.DominantPattern = f.bitString(patterns[0])
		out.DominantPatternMisses = worst.miss
	}
	for _, pattern := range patterns[:min(len(patterns), 16)] {
		p := b.patterns[pattern]
		out.Patterns = append(out.Patterns, telemetry.PatternStat{
			Pattern:     f.bitString(pattern),
			Taken:       p.taken,
			NotTaken:    p.notTaken,
			Mispredicts: p.miss,
			MissRate:    float64(p.miss) / float64(p.taken+p.notTaken),
		})
	}
	names := []string{"SN", "WN", "WT", "ST"}
	for state := range b.transitions {
		for outcome, dir := range []string{"not-taken", "taken"} {
			if n := b.transitions[state][outcome]; n > 0 {
				out.Transitions = append(out.Transitions, telemetry.StateTransition{
					From:    names[state],
					Outcome: dir,
					To:      names[automata["A2"].next[state][outcome]],
					Count:   n,
				})
			}
		}
	}
	return out
}

// bitString renders a history pattern oldest outcome first.
func (f *Forensics) bitString(pattern uint32) string {
	s := ""
	for i := f.cfg.HistoryBits - 1; i >= 0; i-- {
		s += string(rune('0' + pattern>>i&1))
	}
	return s
}
