package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

// feed appends one resolution of pc with the given outcome and
// correctness to f, as a log of one branch.
func feed(f *Forensics, pc uint32, taken, correct bool) {
	var b logBuilder
	b.add(pc, taken, correct)
	f.AppendLog(b.SiteLog)
}

func TestForensicsPatternHistogram(t *testing.T) {
	f := NewForensics(ForensicsConfig{HistoryBits: 2, TopK: 4})
	// Strictly alternating outcomes: after the smeared start the shadow
	// history settles into the two alternating patterns 01 and 10.
	for i := 0; i < 40; i++ {
		feed(f, 0x100, i%2 == 0, i >= 4) // first 4 resolutions miss
	}
	rep := f.Report()
	if rep.Resolutions != 40 || rep.Mispredicts != 4 {
		t.Fatalf("counts: %d resolutions, %d misses", rep.Resolutions, rep.Mispredicts)
	}
	if rep.StaticBranches != 1 || len(rep.TopOffenders) != 1 {
		t.Fatalf("offenders: %+v", rep.TopOffenders)
	}
	pcf := rep.TopOffenders[0]
	if pcf.PC != 0x100 || pcf.Executions != 40 || pcf.Mispredicts != 4 {
		t.Fatalf("profile: %+v", pcf)
	}
	if pcf.DominantPattern == "" || pcf.DominantPatternMisses == 0 {
		t.Fatalf("dominant pattern missing: %+v", pcf)
	}
	// The alternating steady state visits patterns 01 and 10; entropy
	// must be near 1 bit and far from 0 and from the 2-bit maximum.
	if pcf.HistoryEntropyBits < 0.7 || pcf.HistoryEntropyBits > 1.3 {
		t.Errorf("entropy = %v bits, want ~1", pcf.HistoryEntropyBits)
	}
	var occ uint64
	for _, p := range pcf.Patterns {
		occ += p.Occurrences()
	}
	if occ != 40 {
		t.Errorf("pattern occurrences sum to %d, want 40", occ)
	}
}

func TestForensicsSteadyBranchHasZeroEntropy(t *testing.T) {
	f := NewForensics(ForensicsConfig{HistoryBits: 4})
	for i := 0; i < 50; i++ {
		feed(f, 0x200, true, true) // always taken, never missed
	}
	pcf, ok := f.Lookup(0x200)
	if !ok {
		t.Fatal("branch not tracked")
	}
	if pcf.HistoryEntropyBits != 0 {
		t.Errorf("single-pattern entropy = %v, want 0", pcf.HistoryEntropyBits)
	}
	if pcf.PatternsSeen != 1 {
		t.Errorf("patterns seen = %d, want 1", pcf.PatternsSeen)
	}
	if pcf.DominantPattern != "" {
		t.Errorf("never-missing branch has dominant miss pattern %q", pcf.DominantPattern)
	}
}

func TestForensicsWarmupSplit(t *testing.T) {
	f := NewForensics(ForensicsConfig{Budget: 100})
	for i := 0; i < 100; i++ {
		// Misses at resolutions 1..5 (warmup covers 1..10) and 51..53.
		miss := i < 5 || (i >= 50 && i < 53)
		feed(f, 0x300, true, !miss)
	}
	rep := f.Report()
	if rep.WarmupResolutions != 10 {
		t.Fatalf("warmup boundary = %d, want 10", rep.WarmupResolutions)
	}
	pcf := rep.TopOffenders[0]
	if pcf.WarmupMisses != 5 || pcf.SteadyMisses != 3 {
		t.Fatalf("split = %d warmup / %d steady, want 5/3", pcf.WarmupMisses, pcf.SteadyMisses)
	}
}

func TestForensicsUnknownBudgetCountsAllSteady(t *testing.T) {
	f := NewForensics(ForensicsConfig{})
	for i := 0; i < 20; i++ {
		feed(f, 0x300, true, i >= 5)
	}
	pcf, _ := f.Lookup(0x300)
	if pcf.WarmupMisses != 0 || pcf.SteadyMisses != 5 {
		t.Fatalf("unknown budget split = %d/%d, want 0/5", pcf.WarmupMisses, pcf.SteadyMisses)
	}
}

func TestForensicsBurstSnapshots(t *testing.T) {
	f := NewForensics(ForensicsConfig{RecorderSize: 8, BurstThreshold: 4, MaxSnapshots: 2})
	// Quiet stretch, then a dense burst, then quiet, then another burst.
	for i := 0; i < 20; i++ {
		feed(f, 0x10, true, true)
	}
	for i := 0; i < 6; i++ {
		feed(f, 0x20, true, false)
	}
	for i := 0; i < 30; i++ {
		feed(f, 0x10, true, true)
	}
	for i := 0; i < 6; i++ {
		feed(f, 0x20, true, false)
	}
	// A third burst must be dropped by the MaxSnapshots bound.
	for i := 0; i < 30; i++ {
		feed(f, 0x10, true, true)
	}
	for i := 0; i < 6; i++ {
		feed(f, 0x20, true, false)
	}
	rep := f.Report()
	if len(rep.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2 (MaxSnapshots bound)", len(rep.Snapshots))
	}
	s := rep.Snapshots[0]
	if s.Mispredicts < 4 {
		t.Errorf("burst snapshot has %d misses, want >= threshold 4", s.Mispredicts)
	}
	if len(s.Events) == 0 || len(s.Events) > 8 {
		t.Errorf("snapshot window = %d events, want within recorder size 8", len(s.Events))
	}
	last := s.Events[len(s.Events)-1]
	if last.Seq != s.TriggerSeq || last.Correct {
		t.Errorf("snapshot must end at the triggering miss: %+v vs trigger %d", last, s.TriggerSeq)
	}
	if rep.Snapshots[1].TriggerSeq <= rep.Snapshots[0].TriggerSeq {
		t.Errorf("snapshots out of run order: %+v", rep.Snapshots)
	}
}

func TestForensicsReportDeterministic(t *testing.T) {
	run := func() ForensicsReport {
		f := NewForensics(ForensicsConfig{HistoryBits: 3, TopK: 8, Budget: 1000})
		// Several interleaved branches with tied miss counts exercise
		// every sort in the report.
		for i := 0; i < 500; i++ {
			feed(f, uint32(0x100+(i%5)*0x10), i%3 == 0, i%7 != 0)
		}
		return f.Report()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different reports")
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("identical runs produced different JSON")
	}
}

func TestForensicsTransitionsCoverEveryResolution(t *testing.T) {
	f := NewForensics(ForensicsConfig{HistoryBits: 2})
	for i := 0; i < 200; i++ {
		feed(f, 0x40, i%4 < 2, i%5 != 0)
	}
	pcf, _ := f.Lookup(0x40)
	var total uint64
	for _, tr := range pcf.Transitions {
		if tr.From == "" || tr.To == "" || (tr.Outcome != "taken" && tr.Outcome != "not-taken") {
			t.Fatalf("malformed transition: %+v", tr)
		}
		total += tr.Count
	}
	if total != 200 {
		t.Fatalf("transition counts sum to %d, want 200 (one edge per resolution)", total)
	}
}

func TestForensicsTopKBoundAndLookupBeyondIt(t *testing.T) {
	f := NewForensics(ForensicsConfig{TopK: 2})
	for pc := uint32(1); pc <= 5; pc++ {
		for i := uint32(0); i < 10; i++ {
			feed(f, pc*0x100, true, i >= pc) // pc misses scale with pc
		}
	}
	rep := f.Report()
	if len(rep.TopOffenders) != 2 {
		t.Fatalf("top offenders = %d, want 2", len(rep.TopOffenders))
	}
	if rep.TopOffenders[0].PC != 0x500 || rep.TopOffenders[1].PC != 0x400 {
		t.Fatalf("offender order: %#x, %#x", rep.TopOffenders[0].PC, rep.TopOffenders[1].PC)
	}
	if _, ok := f.Lookup(0x100); !ok {
		t.Fatal("Lookup must reach branches outside TopK")
	}
}

// TestAppendLogTwiceEqualsConcatenated: appending a log in two parts,
// each numbering its own sites and cut off a word boundary, leaves a
// Forensics exactly as one append of the whole log does.
func TestAppendLogTwiceEqualsConcatenated(t *testing.T) {
	var whole, head, tail logBuilder
	for i := 0; i < 300; i++ {
		pc := uint32(0x100 + 4*(i*7%13))
		taken, correct := i%3 != 0, i%5 != 0 && i%11 != 3
		whole.add(pc, taken, correct)
		if i < 100 {
			head.add(pc, taken, correct)
		} else {
			tail.add(pc, taken, correct)
		}
	}
	one := NewForensics(ForensicsConfig{Budget: 300})
	one.AppendLog(whole.SiteLog)
	two := NewForensics(ForensicsConfig{Budget: 300})
	two.AppendLog(head.SiteLog)
	two.AppendLog(tail.SiteLog)
	if !reflect.DeepEqual(two, one) {
		t.Fatalf("two appends differ from one:\n got %+v\nwant %+v", two.log, one.log)
	}
	if rep := one.Report(); rep.Resolutions != 300 || rep.Mispredicts == 0 {
		t.Fatalf("report of the whole log: %d resolutions, %d mispredicts", rep.Resolutions, rep.Mispredicts)
	}
}
