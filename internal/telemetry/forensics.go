package telemetry

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
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
// counts, by contrast, come from the real run (the replay's mispredict
// bits), so the report attributes the predictor's actual misses to the
// history patterns they occurred under. A Forensics keeps only the run's
// SiteLog, handed over by AppendLog, and folds it when asked: counts and
// offender ranking are the per-site fold of the Tap's hot-branch
// profile, and the shadow model runs only for the sites a report
// returns.
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
	cfg     ForensicsConfig
	warmupN uint64 // resolutions counted as warmup
	log     SiteLog
	dir     flat.PCIndex // log.Sites' directory
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
	// Budget is the run's conditional branch budget; its first tenth
	// (WarmupBoundary) counts as warmup in the miss split. 0 means
	// unknown: every miss is then counted as steady-state.
	Budget uint64
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
	return c
}

// NewForensics returns a Forensics with cfg's defaults applied. Attach
// it to a run through sim.Telemetry.Forensics.
func NewForensics(cfg ForensicsConfig) *Forensics {
	cfg = cfg.withDefaults()
	return &Forensics{cfg: cfg, warmupN: WarmupBoundary(cfg.Budget)}
}

// AppendLog appends the resolved branches of a replay's log to f, in
// resolution order, renumbering l's sites into f's. The columns are
// copied, so l's may be reused once AppendLog returns.
func (f *Forensics) AppendLog(l SiteLog) {
	remap := make([]int32, len(l.Sites)) // l's site id → f's
	for i, pc := range l.Sites {
		id, added := f.dir.Add(pc)
		if added {
			f.log.Sites = append(f.log.Sites, pc)
		}
		remap[i] = id
	}
	base, n := len(f.log.IDs), len(l.IDs)
	f.log.IDs = slices.Grow(f.log.IDs, n)
	for _, id := range l.IDs {
		f.log.IDs = append(f.log.IDs, remap[id])
	}
	f.log.Outs = append(f.log.Outs, l.Outs[:n]...)
	for len(f.log.Miss) < (base+n+63)/64 {
		f.log.Miss = append(f.log.Miss, 0)
	}
	for wi, w := range l.Miss[:(n+63)/64] {
		for ; w != 0; w &= w - 1 {
			j := base + (wi<<6 | bits.TrailingZeros64(w))
			f.log.Miss[j>>6] |= 1 << (j & 63)
		}
	}
}

// a2 is the shadow automaton.
var a2 = automaton.New(automaton.A2)

// shadow is the shadow model of one reported site: its local history
// register, one row per history pattern seen (keyed by pattern through
// a directory, so storage grows with the patterns seen, not with
// 2^HistoryBits) and the A2 edge counts.
type shadow struct {
	hist        uint32 // stepped with flat.Shift
	dir         flat.PCIndex
	patterns    []patternCount
	transitions [4][2]uint64 // [state][outcome]
}

// patternCount is one history pattern's row: real outcomes and misses
// under it, and its A2 state.
type patternCount struct {
	pattern uint32
	outs    [2]uint64 // [outcome]
	miss    uint64
	state   automaton.State
}

// step resolves one branch of the shadow's site: outcome o under the
// current pattern, mispredicted or not.
func (s *shadow) step(o uint32, missed bool, mask uint32) {
	pattern := s.hist & mask
	i, added := s.dir.Add(pattern)
	if added {
		s.patterns = append(s.patterns, patternCount{pattern: pattern, state: a2.Initial()}) //lint:allow hotalloc amortised growth: one row per distinct pattern, not per event
	}
	p := &s.patterns[i]
	s.transitions[p.state][o]++
	p.state = a2.Next(p.state, o == 1)
	p.outs[o]++
	if missed {
		p.miss++
	}
	s.hist = flat.Shift(s.hist, o, mask)
}

// foldShadows runs the shadow model of each site of ids over the log in
// one walk, skipping every other site's branches.
func (f *Forensics) foldShadows(ids []int32) []shadow {
	mask := uint32(1)<<f.cfg.HistoryBits - 1
	shadows := make([]shadow, len(ids))
	slot := make([]int32, len(f.log.Sites)) // site id → shadow index + 1 (0 = not reported)
	for i, id := range ids {
		slot[id] = int32(i + 1)
		shadows[i].hist = mask | flat.FreshBit
	}
	outs := f.log.Outs
	for j, id := range f.log.IDs {
		if s := slot[id]; s != 0 {
			shadows[s-1].step(uint32(outs[j]), f.log.Missed(j), mask)
		}
	}
	return shadows
}

// foldSnapshots finds the flight-recorder snapshots by walking the set
// bits of the mispredict bitset: a miss at branch j triggers one when
// the window of the RecorderSize branches ending at j holds at least
// BurstThreshold misses and j is at least one window past the last
// trigger, until MaxSnapshots are taken.
func (f *Forensics) foldSnapshots() []FlightSnapshot {
	size, miss := f.cfg.RecorderSize, f.log.Miss
	var snaps []FlightSnapshot
	next := 0 // the first branch that may trigger
	for wi, w := range miss {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 | bits.TrailingZeros64(w)
			if j < next {
				continue
			}
			lo := max(0, j-size+1)
			m := OnesIn(miss, lo, j+1)
			if m < uint64(f.cfg.BurstThreshold) {
				continue
			}
			snaps = append(snaps, FlightSnapshot{ //lint:allow hotalloc at most MaxSnapshots appends per report, not per event
				TriggerSeq:  uint64(j + 1),
				Mispredicts: int(m),
				Events:      f.flightEvents(lo, j+1),
			})
			if len(snaps) == f.cfg.MaxSnapshots {
				return snaps
			}
			next = j + size
		}
	}
	return snaps
}

// flightEvents rebuilds the recorder window of branches [lo, hi) from
// the log's columns.
func (f *Forensics) flightEvents(lo, hi int) []FlightEvent {
	evs := make([]FlightEvent, hi-lo) //lint:allow hotalloc one window per snapshot, at most MaxSnapshots per report
	for i := range evs {
		j := lo + i
		taken, correct := f.log.Outs[j] == 1, !f.log.Missed(j)
		evs[i] = FlightEvent{
			Seq:       uint64(j + 1),
			PC:        f.log.Sites[f.log.IDs[j]],
			Taken:     taken,
			Predicted: taken == correct,
			Correct:   correct,
		}
	}
	return evs
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
	// boundary (WarmupBoundary of Budget). With Budget unknown every
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

// stateNames and outcomeNames name an A2 state and an outcome in reports.
var (
	stateNames   = [4]string{"SN", "WN", "WT", "ST"}
	outcomeNames = [2]string{"not-taken", "taken"}
)

// patternString renders a k-bit pattern as a bit string, oldest first.
func patternString(pattern uint32, k int) string {
	buf := make([]byte, k)
	for i := range buf {
		buf[i] = '0' + byte(pattern>>(k-1-i)&1)
	}
	return string(buf)
}

// Lookup returns the forensic profile of one static branch, or false when
// the branch was never observed. It is not bounded by TopK.
func (f *Forensics) Lookup(pc uint32) (PCForensics, bool) {
	id, ok := f.dir.Get(pc)
	if !ok {
		return PCForensics{}, false
	}
	fold := FoldSites(f.log, f.warmupN)
	return f.profiles(&fold, []int32{id})[0], true
}

// Report assembles the forensics report: the TopK worst offenders plus
// the burst snapshots. Ordering is fully deterministic.
func (f *Forensics) Report() ForensicsReport {
	fold := FoldSites(f.log, f.warmupN)
	return ForensicsReport{
		HistoryBits:       f.cfg.HistoryBits,
		Resolutions:       uint64(len(f.log.IDs)),
		Mispredicts:       OnesIn(f.log.Miss, 0, len(f.log.IDs)),
		StaticBranches:    len(f.log.Sites),
		WarmupResolutions: f.warmupN,
		TopOffenders:      f.profiles(&fold, fold.Top(f.cfg.TopK)),
		Snapshots:         f.foldSnapshots(),
	}
}

// profiles builds the report rows of the sites of ids (nil for none):
// the fold's counters plus each site's shadow model.
func (f *Forensics) profiles(fold *SiteFold, ids []int32) []PCForensics {
	if len(ids) == 0 {
		return nil
	}
	shadows := f.foldShadows(ids)
	out := make([]PCForensics, len(ids))
	for i, st := range fold.Profile(ids, FoldCounts(f.log)) {
		out[i] = f.profile(st, &shadows[i])
	}
	return out
}

// profile builds one site's report row.
func (f *Forensics) profile(st PCStats, s *shadow) PCForensics {
	out := PCForensics{
		PC:           st.PC,
		Executions:   st.Executions,
		Mispredicts:  st.Mispredicts,
		TakenRate:    st.TakenRate,
		MissShare:    st.MissShare,
		WarmupMisses: st.WarmupMisses,
		SteadyMisses: st.Mispredicts - st.WarmupMisses,
		PatternsSeen: len(s.patterns),
	}
	rows := s.patterns
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].miss != rows[j].miss {
			return rows[i].miss > rows[j].miss
		}
		return rows[i].pattern < rows[j].pattern
	})
	// Entropy is summed in this order, so the floating-point result does
	// not depend on the order patterns were first seen in.
	for _, r := range rows {
		prob := float64(r.outs[0]+r.outs[1]) / float64(st.Executions)
		out.HistoryEntropyBits -= prob * math.Log2(prob)
	}
	// Avoid -0 for single-pattern branches.
	out.HistoryEntropyBits = math.Abs(out.HistoryEntropyBits)
	if rows[0].miss > 0 {
		out.DominantPattern = patternString(rows[0].pattern, f.cfg.HistoryBits)
		out.DominantPatternMisses = rows[0].miss
	}
	for _, r := range rows[:min(len(rows), patternsPerPC)] {
		out.Patterns = append(out.Patterns, PatternStat{
			Pattern:     patternString(r.pattern, f.cfg.HistoryBits),
			Taken:       r.outs[1],
			NotTaken:    r.outs[0],
			Mispredicts: r.miss,
			MissRate:    float64(r.miss) / float64(r.outs[0]+r.outs[1]),
		})
	}

	for st, edges := range s.transitions {
		for outcome, n := range edges {
			if n > 0 {
				out.Transitions = append(out.Transitions, StateTransition{
					From:    stateNames[st],
					Outcome: outcomeNames[outcome],
					To:      stateNames[a2.Next(automaton.State(st), outcome == 1)],
					Count:   n,
				})
			}
		}
	}
	return out
}
