package analysis

import (
	"testing"

	"twolevel/internal/trace"
)

func record(a *Analyzer, pc uint32, taken bool) {
	a.Record(trace.Branch{PC: pc, Target: pc - 16, Class: trace.Cond, Taken: taken})
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 512, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	for _, bad := range [][2]int{{100, 4}, {512, 3}, {4, 8}, {-8, 1}} {
		if _, err := New(6, bad[0], bad[1]); err == nil {
			t.Errorf("accepted a %d-entry %d-way table", bad[0], bad[1])
		}
	}
	if _, err := New(6, 0, 0); err != nil {
		t.Fatalf("ideal table rejected: %v", err)
	}
}

func TestBreakdownCountsConsistent(t *testing.T) {
	a, err := New(6, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		record(a, 0x100, i%3 != 2)
		record(a, 0x200, i%2 == 0)
	}
	b := a.Breakdown()
	if b.Predictions != 4000 {
		t.Fatalf("predictions = %d", b.Predictions)
	}
	var sum uint64
	for c := 0; c < NumCategories; c++ {
		sum += b.ByCategory[c]
	}
	if sum != b.Mispredictions {
		t.Fatalf("categories sum to %d, mispredictions %d", sum, b.Mispredictions)
	}
	if b.Accuracy() < 0.9 {
		t.Fatalf("patterned branches should be learned: %.3f", b.Accuracy())
	}
	total := 0.0
	for c := Category(0); c < Category(NumCategories); c++ {
		total += b.Share(c)
	}
	if b.Mispredictions > 0 && (total < 0.999 || total > 1.001) {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestColdStartAttribution(t *testing.T) {
	// A fresh analyzer mispredicting its very first branch must blame
	// the BHT miss.
	a, _ := New(6, 512, 4)
	record(a, 0x100, false) // initial state predicts taken -> mispredict
	b := a.Breakdown()
	if b.Mispredictions != 1 || b.ByCategory[BHTMiss] != 1 {
		t.Fatalf("cold mispredict not attributed to BHT miss: %+v", b)
	}
}

func TestPatternColdAttribution(t *testing.T) {
	// Resident branch, but the history pattern it reaches has never
	// been updated: a wrong prediction there is pattern-cold.
	a, _ := New(4, 512, 4)
	// Warm residency with taken outcomes (pattern all-ones gets
	// trained), then flip to not-taken: history walks through fresh
	// patterns whose entries are cold.
	for i := 0; i < 6; i++ {
		record(a, 0x100, true)
	}
	before := a.Breakdown().ByCategory[PatternCold]
	for i := 0; i < 3; i++ {
		record(a, 0x100, false)
	}
	after := a.Breakdown().ByCategory[PatternCold]
	if after == before {
		t.Fatalf("expected pattern-cold mispredictions: %+v", a.Breakdown())
	}
}

func TestInterferenceAttribution(t *testing.T) {
	// Two branches sharing the same history pattern with opposite
	// outcomes: the losers' mispredictions are interference.
	a, _ := New(4, 512, 4)
	for i := 0; i < 400; i++ {
		record(a, 0x100, true)  // history all-ones, outcome taken
		record(a, 0x200, false) // history all-zeros after smear...
	}
	// 0x200's smear makes its pattern all-zeros (distinct), so build a
	// genuinely colliding pair: both alternate, phases opposite, so both
	// see pattern 0101.. and 1010.. with opposite next outcomes.
	b, _ := New(4, 512, 4)
	for i := 0; i < 500; i++ {
		record(b, 0x300, i%2 == 0)
		record(b, 0x400, i%2 == 1)
	}
	br := b.Breakdown()
	if br.ByCategory[Interference] == 0 {
		t.Fatalf("opposite-phase alternation should show interference: %+v", br)
	}
}

func TestInherentAttribution(t *testing.T) {
	// A single branch with random-ish outcomes on a warm entry: after
	// warm-up its mispredictions are inherent.
	a, _ := New(1, 512, 4) // k=1: only two patterns, warm quickly
	seq := []bool{true, true, false, true, false, false, true, true, false, true}
	for r := 0; r < 50; r++ {
		for _, taken := range seq {
			record(a, 0x500, taken)
		}
	}
	br := a.Breakdown()
	if br.ByCategory[Inherent] == 0 {
		t.Fatalf("noisy branch should show inherent mispredictions: %+v", br)
	}
}

func TestContextSwitchCausesBHTMisses(t *testing.T) {
	a, _ := New(6, 512, 4)
	for i := 0; i < 100; i++ {
		record(a, 0x100, true)
	}
	missesBefore := a.Breakdown().ByCategory[BHTMiss]
	a.ContextSwitch()
	record(a, 0x100, false) // post-flush mispredict
	if a.Breakdown().ByCategory[BHTMiss] != missesBefore+1 {
		t.Fatalf("post-flush mispredict not attributed to BHT miss: %+v", a.Breakdown())
	}
}

func TestAnalyzeFromSource(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 3000; i++ {
		tr.Append(trace.Event{Instrs: 1, Branch: trace.Branch{
			PC: 0x40, Target: 0x20, Class: trace.Cond, Taken: i%2 == 0,
		}})
	}
	tr.Append(trace.Event{Trap: true, Instrs: 1})
	b, err := Analyze(tr.Reader(), 8, 512, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Predictions != 2000 {
		t.Fatalf("budget not respected: %d", b.Predictions)
	}
	if b.Accuracy() < 0.95 {
		t.Fatalf("alternation should be learned: %.3f", b.Accuracy())
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		BHTMiss: "bht-miss", PatternCold: "pattern-cold",
		PatternTraining: "pattern-training", Interference: "interference",
		Inherent: "inherent", Category(99): "Category(99)",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}
